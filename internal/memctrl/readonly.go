package memctrl

import (
	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/audit"
	"fsencr/internal/config"
	"fsencr/internal/counters"
)

// This file is the read-only snapshot entry point of the concurrent read
// fast-path: SnapshotReadPage decrypts one page without mutating any
// controller state, so reader goroutines can run it in parallel while the
// shard's owner goroutine is parked behind the shard's reader lock. All
// side effects the live datapath would have produced — stats, audit
// records, ECC-violation accounting — are captured in a ReadDelta the
// owner later applies under its own lock (ApplyReadDelta).
//
// The snapshot path is success-only: anything the live path would handle
// with a mutation (metadata-cache fill, OTT refill, first-touch counter
// creation side effects, journal emission, locked or crashed datapath)
// makes SnapshotReadPage return false, and the caller re-runs the read on
// the owner goroutine with full live semantics.

// Reader is a decrypt context: a memory engine, a file-engine cache, and
// the page-sized pad buffers the datapath builds its one-time pads in. The
// controller's own datapath runs on one (Controller.crypt); NewReader gives
// each concurrent reader goroutine a private one whose memory engine is a
// fork (shared key schedule, private counter-block scratch). Readers are
// pooled by the server; a Reader must never be used by two goroutines at
// once.
type Reader struct {
	mem     *aesctr.Engine
	engines map[aesctr.Key]*aesctr.Engine
	aesLat  config.Cycle

	pad     aesctr.Page
	filePad aesctr.Page
}

func newReader(mem *aesctr.Engine, aesLat config.Cycle) *Reader {
	return &Reader{mem: mem, engines: make(map[aesctr.Key]*aesctr.Engine), aesLat: aesLat}
}

// NewReader builds a read-only decrypt context for this controller. Safe
// to call from any goroutine: it reads only construction-time state.
func (c *Controller) NewReader() *Reader {
	var mem *aesctr.Engine
	if c.crypt.mem != nil {
		mem = c.crypt.mem.Fork()
	}
	return newReader(mem, c.crypt.aesLat)
}

func (r *Reader) engineFor(key aesctr.Key) *aesctr.Engine {
	e, ok := r.engines[key]
	if !ok {
		e = aesctr.New(key, r.aesLat)
		r.engines[key] = e
	}
	return e
}

// padSpan is the datapath's one pad builder: it fills lines [lo, hi) of
// the reader's pad buffer with the memory pad under m, XORed with the file
// pad under f when fe is non-nil — OTP_mem XOR OTP_file (Figure 7). Every
// read and write builds its pads here once the counters are final; a line
// operation is the one-line span.
func (r *Reader) padSpan(page uint64, lo, hi int, m *counters.MECB, fe *aesctr.Engine, f *counters.FECB) *aesctr.Page {
	r.mem.OTPSpanInto(&r.pad, page, m.Major, &m.Minor, lo, hi, aesctr.DomainMemory)
	if fe != nil {
		fe.OTPSpanInto(&r.filePad, page, uint64(f.Major), &f.Minor, lo, hi, aesctr.DomainFile)
		aesctr.XORSpanInto(&r.pad, &r.filePad, lo, hi)
	}
	return &r.pad
}

// pageLine returns line li of p.
func pageLine(p *aesctr.Page, li int) *aesctr.Line {
	return (*aesctr.Line)(p[li*config.LineSize : (li+1)*config.LineSize])
}

// AuditEvent is one deferred page-access audit record.
type AuditEvent struct {
	Op    audit.Op
	Page  uint64
	Group uint32
	File  uint16
}

// ECCEvent is one page's deferred Osiris check-tag mismatches.
type ECCEvent struct {
	Page  uint64
	Lines uint64 // bit li set: line li mismatched
}

// ReadDelta accumulates the side effects of snapshot reads for the owner
// goroutine to apply. The zero value is ready to use; Reset recycles it.
type ReadDelta struct {
	Reads  uint64 // line reads to fold into "mc.reads"
	Audits []AuditEvent
	ECC    []ECCEvent
}

// Reset empties the delta, keeping slice capacity.
func (d *ReadDelta) Reset() {
	d.Reads = 0
	d.Audits = d.Audits[:0]
	d.ECC = d.ECC[:0]
}

// Empty reports whether the delta carries nothing to apply.
func (d *ReadDelta) Empty() bool {
	return d.Reads == 0 && len(d.Audits) == 0 && len(d.ECC) == 0
}

// Merge folds another delta into this one (a fanned read accumulates its
// helper chunks' deltas in chunk order before handoff to the owner).
func (d *ReadDelta) Merge(o *ReadDelta) {
	d.Reads += o.Reads
	d.Audits = append(d.Audits, o.Audits...)
	d.ECC = append(d.ECC, o.ECC...)
}

// peekKey resolves a file key without side effects. Only the on-chip OTT
// is consulted: a region-only hit would have triggered a table refill on
// the live path, so the snapshot path treats it as a miss and lets the
// owner's fallback perform the refill (after which snapshot reads hit).
func (c *Controller) peekKey(group uint32, file uint16) (aesctr.Key, bool) {
	return c.ottTable.Peek(group, file)
}

// PeekVerifyKey is VerifyKey without side effects (no OTT LRU refresh, no
// probe counters): the snapshot stat/read path uses it to validate a
// caller-supplied passphrase against the installed file key.
func (c *Controller) PeekVerifyKey(group uint32, file uint16, key aesctr.Key) bool {
	if !c.mode.FileEncryption {
		return true
	}
	if k, ok := c.ottTable.Peek(group, file); ok {
		return k == key
	}
	if e, ok := c.ottRegion.Peek(group, file); ok {
		return e.Key == key
	}
	return false
}

// SnapshotReadPage decrypts the page containing pa into dst using only
// immutable reads of controller state, recording deferred side effects in
// d. It returns false — leaving dst unspecified — whenever the live path
// would have mutated state beyond the deferred set: locked or crashed
// controller, untagged DF page, unresolvable or region-only file key.
// On success the plaintext is byte-identical to ReadPageInto's.
func (c *Controller) SnapshotReadPage(rd *Reader, pa addr.Phys, dst *aesctr.Page, d *ReadDelta) bool {
	if c.crashed {
		return false
	}
	base := pa.PageAlign()
	raw := base.Raw()
	c.PCM.PeekPageInto(raw, dst)
	d.Reads += config.LinesPerPage

	if !c.mode.MemEncryption {
		return true
	}

	page := base.PageNum()
	// Value-copy the counter blocks: an absent block decrypts exactly like
	// the fresh zero block getMECB/getFECB would have created — the create
	// side effects (persist snapshot, Merkle leaf) are what the owner's
	// fallback exists for, and a never-written page needs neither.
	var m counters.MECB
	if mb, ok := c.mecb[page]; ok {
		m = *mb
	}
	var f counters.FECB
	var fe *aesctr.Engine
	if base.IsDF() {
		if !c.fileActive() {
			return false // locked datapath: live path journals and decrypts to garbage
		}
		fb, ok := c.fecb[page]
		if !ok || (fb.GroupID == 0 && fb.FileID == 0) {
			// Untagged FECB: the live path would journal a DF mismatch.
			return false
		}
		f = *fb
		key, ok := c.peekKey(f.GroupID, f.FileID)
		if !ok {
			return false
		}
		d.Audits = append(d.Audits, AuditEvent{Op: audit.OpReadPage, Page: page, Group: f.GroupID, File: f.FileID})
		fe = rd.engineFor(key)
	}
	aesctr.XORPageInto(dst, rd.padSpan(page, 0, config.LinesPerPage, &m, fe, &f))

	// Osiris check tags, deferred: mismatches are recorded, accounted by
	// the owner at drain time.
	if mask := c.eccMismatches(page, 0, dst[:]); mask != 0 {
		d.ECC = append(d.ECC, ECCEvent{Page: page, Lines: mask})
	}
	return true
}

// ApplyReadDelta folds the deferred side effects of snapshot reads into
// the controller. Must run on the owner goroutine (it mutates stats, the
// audit chain, and the journal). now stamps the deferred audit and
// journal records: snapshot reads advance no simulated clock, so the
// owner's current time is the only meaningful timestamp.
func (c *Controller) ApplyReadDelta(now config.Cycle, d *ReadDelta) {
	if d.Reads > 0 {
		c.st.Add("mc.reads", d.Reads)
	}
	for _, a := range d.Audits {
		c.aud.Append(uint64(now), a.Op, a.Page, a.Group, a.File)
	}
	for _, e := range d.ECC {
		c.emitECC(now, e.Page, e.Lines)
	}
}
