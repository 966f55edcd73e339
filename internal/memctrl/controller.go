// Package memctrl implements the secure memory controller at the heart of
// FsEncr (§III). It steers requests by the DF-bit in the physical address:
// ordinary lines go through counter-mode memory encryption only, while DAX
// file lines are additionally encrypted with a per-file key resolved through
// the Open Tunnel Table, using the File Encryption Counter Block's
// (GroupID, FileID) tag. The final one-time pad for a file line is
// OTP_mem XOR OTP_file (Figure 7).
//
// The controller owns the security metadata (MECB/FECB counter blocks), the
// dedicated metadata cache, the Bonsai Merkle Tree over the metadata region,
// the OTT and its encrypted memory region, the Osiris-style crash
// consistency state, and the PCM device itself.
package memctrl

import (
	"sync/atomic"

	"fsencr/internal/aesctr"
	"fsencr/internal/audit"
	"fsencr/internal/cache"
	"fsencr/internal/config"
	"fsencr/internal/counters"
	"fsencr/internal/merkle"
	"fsencr/internal/obsplane/journal"
	"fsencr/internal/ott"
	"fsencr/internal/pcm"
	"fsencr/internal/stats"
	"fsencr/internal/telemetry"
)

// Physical layout of the metadata structures. Data lives below MetaBase;
// the regions above are reserved for the controller (not addressable by
// software, which is what protects the OTT region from kernel/user access).
const (
	// MetaBase is the start of the counter-block region: page p's MECB at
	// MetaBase + 128p, its FECB at MetaBase + 128p + 64 ("a file encryption
	// counter block follows each memory encryption counter block").
	MetaBase = 1 << 40
	// MTBase is the start of the Merkle-tree node storage.
	MTBase = 1 << 41
	// OTTBase is the start of the encrypted OTT region.
	OTTBase = 1 << 42
	// AuditBase is the start of the reserved audit-log region (FOX-style
	// hash-chained access records, internal/audit).
	AuditBase = 1 << 43
	// MaxDataBytes bounds the software-visible physical space (16 GB
	// device, Table III), so page numbers fit the Merkle tree coverage.
	MaxDataBytes = 16 << 30
)

// Mode selects which hardware protections are active.
type Mode struct {
	// MemEncryption enables counter-mode memory encryption + BMT (the
	// paper's "Baseline Security").
	MemEncryption bool
	// FileEncryption additionally enables the FsEncr file datapath
	// (FECB + OTT + second OTP).
	FileEncryption bool
}

// Controller is the secure memory controller.
type Controller struct {
	cfg  config.Config
	mode Mode
	st   *stats.Set
	// chipSeq is the per-chip key-derivation sequence the controller was
	// built with. Controllers sharing a chipSeq derive identical memory
	// and OTT keys — the property shard migration and replication rely on
	// to make replayed ciphertext and sealed OTT buckets byte-identical.
	chipSeq uint64

	PCM *pcm.Memory

	// crypt is the datapath's crypt context: memory engine, file-engine
	// cache and pad buffers (a Reader the owner goroutine keeps).
	crypt *Reader
	// metaCache is the shared metadata cache; when partitioning is on,
	// metaCaches[0..2] hold the MECB / FECB / tree-node partitions and
	// metaCache aliases partition 0 for legacy accessors.
	metaCache  *cache.Cache
	metaCaches [3]*cache.Cache
	mt         *merkle.Tree

	mecb map[uint64]*counters.MECB // by physical page number
	fecb map[uint64]*counters.FECB

	ottTable  *ott.Table
	ottRegion *ott.Region

	// Osiris crash-consistency state.
	persistedMECB map[uint64]counters.MECB
	persistedFECB map[uint64]counters.FECB
	unpersisted   map[uint64]int    // counter-block addr -> bumps since persist
	ecc           map[uint64]uint64 // raw line number -> ECC-embedded check tag
	crashed       bool

	// Pre-crash snapshots, used only by VerifyRecovery in tests.
	preCrashMECB map[uint64]*counters.MECB
	preCrashFECB map[uint64]*counters.FECB
	preCrashRoot merkle.Hash

	// locked disables the file-decryption datapath, as after a failed
	// admin authentication at boot (§VI): only memory encryption functions.
	locked bool

	// encScratch is the shared serialization buffer of encMECB/encFECB:
	// counter blocks re-encode on every fetch and bump, and the datapath is
	// single-threaded per controller, so one caller-owned line avoids a
	// 64-byte heap escape per metadata access. Consumers (tree hash, MAC
	// check) read the bytes synchronously and never retain the slice.
	encScratch counters.Block
	// mtPath is the reusable Merkle path-walk buffer of fetchMeta and
	// touchDirtyCounter (same single-threaded-datapath argument).
	mtPath []merkle.NodeID
	// reOld/reNew are the page re-encryption sweep's pad buffers. Locals
	// escape to the heap through the cipher.Block.Encrypt interface call
	// inside OTPInto; OTPInto fully overwrites its destination, so reuse
	// is safe. pageStartScratch/pageDoneScratch carry per-line issue and
	// completion times between the burst scheduler and AccessPage.
	reOld, reNew     aesctr.Line
	pageStartScratch [config.LinesPerPage]config.Cycle
	pageDoneScratch  [config.LinesPerPage]config.Cycle

	// writeQueue holds the completion times of in-flight writes. Writes
	// are posted: the core's CLWB/SFENCE completes when the store is
	// *accepted* into the controller's persistence domain (ADR), not when
	// the PCM array write finishes. Backpressure appears only when the
	// queue fills.
	writeQueue []config.Cycle

	violations uint64

	// Telemetry. All nil (no-op) until Instrument is called.
	tel          *telemetry.Registry
	trace        *telemetry.TraceScope
	tReadCycles  *telemetry.Histogram
	tWriteAccept *telemetry.Histogram
	tMetaFetch   *telemetry.Histogram
	tBMTWalk     *telemetry.Histogram
	tKeyLookup   *telemetry.Histogram

	// Security-event journal (nil until AttachJournal) and the simulated
	// cycle of the request currently in the datapath, which stamps events
	// emitted from structures that have no clock of their own (OTT, tree).
	jrn    *journal.Journal
	jcycle uint64

	// Tamper-evident access-audit log (nil until EnableAudit): hash-chained
	// page-access records written through to the reserved region at
	// AuditBase.
	aud *audit.Log
}

// writeQueueDepth is the number of in-flight writes the controller buffers.
const writeQueueDepth = 64

// acceptWrite returns the time a write arriving at now is accepted into the
// persistence domain, waiting for a queue slot if all are in flight.
func (c *Controller) acceptWrite(now config.Cycle) config.Cycle {
	c.retireWrites(now)
	return c.acceptSlot(now)
}

// retireWrites drops completed writes from the in-flight queue.
func (c *Controller) retireWrites(now config.Cycle) {
	live := c.writeQueue[:0]
	for _, done := range c.writeQueue {
		if done > now {
			live = append(live, done)
		}
	}
	c.writeQueue = live
}

// acceptSlot grants one persistence-domain slot at now, popping the
// earliest in-flight completion when the queue is full. The page burst path
// retires once and then claims 64 slots back-to-back; the line path retires
// before every claim (acceptWrite).
func (c *Controller) acceptSlot(now config.Cycle) config.Cycle {
	if len(c.writeQueue) < writeQueueDepth {
		return now + 1
	}
	// Queue full: wait for the earliest in-flight write to retire.
	minIdx := 0
	for i, done := range c.writeQueue {
		if done < c.writeQueue[minIdx] {
			minIdx = i
		}
	}
	accepted := c.writeQueue[minIdx]
	c.writeQueue[minIdx] = c.writeQueue[len(c.writeQueue)-1]
	c.writeQueue = c.writeQueue[:len(c.writeQueue)-1]
	c.st.Inc("mc.write_queue_stalls")
	return accepted + 1
}

// instanceSeq gives every controller distinct processor keys (fuses differ
// chip to chip). It is the only state shared across controllers, and it is
// bumped atomically because the parallel experiment runner boots systems
// concurrently. Key material only shapes the ciphertext bytes at rest,
// never the measured statistics, so simulations stay deterministic even
// though concurrent batches may assign sequence numbers in any order.
var instanceSeq atomic.Uint64

// New builds a controller in the given mode. All keys (memory key, OTT key)
// are generated inside the "processor" and never exposed.
func New(cfg config.Config, mode Mode, st *stats.Set) *Controller {
	return newWithSeq(cfg, mode, st, instanceSeq.Add(1))
}

// NewWithChipSeq builds a controller with an explicit chip sequence
// number. The cluster fabric uses it to give a shard's replicas and
// migration targets the same processor keys as the primary, so state
// reconstructed by admission-log replay is byte-identical down to the
// ciphertext. seq 0 falls back to the auto-assigned per-process sequence.
func NewWithChipSeq(cfg config.Config, mode Mode, st *stats.Set, seq uint64) *Controller {
	if seq == 0 {
		return New(cfg, mode, st)
	}
	return newWithSeq(cfg, mode, st, seq)
}

// ChipSeq returns the chip key-derivation sequence number.
func (c *Controller) ChipSeq() uint64 { return c.chipSeq }

// newWithSeq builds a controller with an explicit chip sequence number.
// Tests that must compare ciphertext across two controllers (the
// page-vs-line equivalence property) pass the same seq to both so the
// derived processor keys match; production construction always goes
// through New.
func newWithSeq(cfg config.Config, mode Mode, st *stats.Set, seq uint64) *Controller {
	c := &Controller{
		cfg:           cfg,
		mode:          mode,
		st:            st,
		chipSeq:       seq,
		PCM:           pcm.New(cfg.PCM, st),
		mecb:          make(map[uint64]*counters.MECB),
		fecb:          make(map[uint64]*counters.FECB),
		persistedMECB: make(map[uint64]counters.MECB),
		persistedFECB: make(map[uint64]counters.FECB),
		unpersisted:   make(map[uint64]int),
		ecc:           make(map[uint64]uint64),
	}
	var mem *aesctr.Engine
	if mode.MemEncryption {
		mem = aesctr.New(deriveKey("fsencr-memory-key", seq), cfg.Security.AESLatency)
		if cfg.Security.PartitionMetadataCache {
			// Equitable split: half for the tree nodes (they are the
			// deepest structure), a quarter each for MECB and FECB.
			quarter := cfg.Security.MetadataCacheSize / 4
			c.metaCaches[0] = cache.New("metadata.mecb", quarter, cfg.Security.MetadataCacheWays)
			c.metaCaches[1] = cache.New("metadata.fecb", quarter, cfg.Security.MetadataCacheWays)
			c.metaCaches[2] = cache.New("metadata.mt", 2*quarter, cfg.Security.MetadataCacheWays)
			c.metaCache = c.metaCaches[0]
		} else {
			c.metaCache = cache.New("metadata", cfg.Security.MetadataCacheSize, cfg.Security.MetadataCacheWays)
			c.metaCaches = [3]*cache.Cache{c.metaCache, c.metaCache, c.metaCache}
		}
		c.mt = merkle.New(cfg.Security.MerkleArity, cfg.Security.MerkleLevels)
	}
	c.crypt = newReader(mem, cfg.Security.AESLatency)
	if mode.FileEncryption {
		c.ottTable = ott.NewTable(cfg.Security.OTTBanks, cfg.Security.OTTEntriesPerBank)
		c.ottRegion = ott.NewRegion(deriveKey("fsencr-ott-key", seq), 1024)
	}
	return c
}

// deriveKey produces a deterministic per-purpose, per-chip key for
// reproducible simulations (a real controller would use a hardware RNG /
// fuses).
func deriveKey(label string, seq uint64) aesctr.Key {
	var k aesctr.Key
	h := uint64(1469598103934665603)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	h ^= seq * 0x9e3779b97f4a7c15
	for i := range k {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		k[i] = byte(h)
	}
	return k
}

// Mode returns the active protection mode.
func (c *Controller) Mode() Mode { return c.mode }

// Stats returns the controller's counter set.
func (c *Controller) Stats() *stats.Set { return c.st }

// MetadataCache exposes the (first partition of the) metadata cache, for
// sensitivity studies and tests.
func (c *Controller) MetadataCache() *cache.Cache { return c.metaCache }

// mcacheFor routes a metadata address to its cache partition: MECBs (even
// counter slots), FECBs (odd slots), and everything else (Merkle nodes and
// OTT buckets) to the tree partition. With partitioning off, all three
// entries alias the shared cache.
func (c *Controller) mcacheFor(metaAddr uint64) *cache.Cache {
	if metaAddr >= MetaBase && metaAddr < MTBase {
		if (metaAddr-MetaBase)/config.LineSize%2 == 0 {
			return c.metaCaches[0]
		}
		return c.metaCaches[1]
	}
	return c.metaCaches[2]
}

// clearMetaCaches wipes every partition (power loss).
func (c *Controller) clearMetaCaches() {
	seen := map[*cache.Cache]bool{}
	for _, mc := range c.metaCaches {
		if mc != nil && !seen[mc] {
			mc.Clear()
			seen[mc] = true
		}
	}
}

// MetaHitRate aggregates hit rates across partitions.
func (c *Controller) MetaHitRate() float64 {
	var hits, total uint64
	seen := map[*cache.Cache]bool{}
	for _, mc := range c.metaCaches {
		if mc == nil || seen[mc] {
			continue
		}
		seen[mc] = true
		hits += mc.Hits
		total += mc.Hits + mc.Misses
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// OTT exposes the on-chip table (for inspection in tests/examples).
func (c *Controller) OTT() *ott.Table { return c.ottTable }

// OTTRegion exposes the encrypted in-memory OTT region.
func (c *Controller) OTTRegion() *ott.Region { return c.ottRegion }

// MerkleRoot returns the processor-resident tree root.
func (c *Controller) MerkleRoot() merkle.Hash {
	if c.mt == nil {
		return merkle.Hash{}
	}
	return c.mt.Root()
}

// IntegrityViolations returns how many metadata integrity failures the
// controller has detected (tampered/replayed metadata).
func (c *Controller) IntegrityViolations() uint64 { return c.violations }

// Lock disables the FsEncr file-decryption datapath (failed boot-time admin
// authentication, §VI): requests still decrypt with the memory key only, so
// an attacker who boots an alien OS sees file bytes still wrapped in the
// file OTP.
func (c *Controller) Lock() { c.locked = true }

// Unlock re-enables the file datapath after successful authentication.
func (c *Controller) Unlock() { c.locked = false }

// Locked reports whether the file datapath is locked.
func (c *Controller) Locked() bool { return c.locked }

// Metadata addresses.

func mecbAddr(page uint64) uint64 { return MetaBase + page*2*config.LineSize }
func fecbAddr(page uint64) uint64 { return MetaBase + (page*2+1)*config.LineSize }
func mtNodeAddr(n merkle.NodeID) uint64 {
	return MTBase + uint64(n.Level)<<36 + uint64(n.Index)*config.LineSize
}
func ottBucketAddr(bucket int) uint64 { return OTTBase + uint64(bucket)*config.LineSize }

// Merkle leaf numbering: page p's MECB is leaf 2p, FECB leaf 2p+1; OTT
// region bucket b is leaf ottLeafBase+b.
const ottLeafBase = 2 * (MaxDataBytes / config.PageSize)

func mecbLeaf(page uint64) int { return int(2 * page) }
func fecbLeaf(page uint64) int { return int(2*page + 1) }
func ottLeaf(bucket int) int   { return ottLeafBase + bucket }
