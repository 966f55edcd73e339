package memctrl

// Module images: a serializable snapshot of everything the NVM module side
// of a controller holds — device frames (ciphertext), counter blocks, ECC
// tags, OTT entries and the sealed OTT region — plus the Merkle root and
// the chip key-derivation sequence.
//
// An Image is plain data: it gob-encodes, ships over the cluster fabric,
// and rehydrates into a fresh controller built with the same chip
// sequence, which is how the processor keys travel. It serves two paths:
//   - §VI "moving an entire filesystem to a new machine": FlushOTT,
//     ExportImage, then ImportImage on the destination, which regenerates
//     the Merkle tree and refuses a module whose root does not match.
//   - Shard migration, where the image is the *verification artifact* —
//     the target reconstructs state by replaying the admission log and
//     then proves equivalence against the image root and the Osiris
//     recovery gate — not the transfer mechanism.

import (
	"bytes"
	"errors"
	"fmt"

	"fsencr/internal/config"
	"fsencr/internal/counters"
	"fsencr/internal/merkle"
	"fsencr/internal/ott"
	"fsencr/internal/stats"
)

// Image is the serializable module snapshot.
type Image struct {
	// ChipSeq is the key-derivation sequence of the source controller. A
	// controller can only import an image whose ChipSeq matches its own:
	// with different processor keys neither the ciphertext nor the sealed
	// OTT records would authenticate.
	ChipSeq uint64
	// Root is the Merkle root over the metadata region at export time.
	Root merkle.Hash
	// Frames holds the device contents (ciphertext), keyed by page number.
	Frames map[uint64][]byte
	// MECB/FECB are the current counter blocks by physical page number.
	MECB map[uint64]counters.MECB
	FECB map[uint64]counters.FECB
	// ECC maps raw line numbers to their ECC-embedded check tags.
	ECC map[uint64]uint64
	// Entries are the on-chip OTT entries; Buckets is the sealed region.
	Entries []ott.Entry
	Buckets [][]ott.Sealed
}

// FlushOTT seals every on-chip OTT entry into the encrypted region and
// folds the buckets into the Merkle tree — the shutdown/export persist
// path, exposed so a shard can run it as an admission-log step (the
// replayer must execute the identical flush to reproduce the root).
func (c *Controller) FlushOTT() {
	if c.ottTable == nil {
		return
	}
	for _, e := range c.ottTable.Entries() {
		bucket := c.ottRegion.Store(e)
		c.updateOTTLeaf(bucket)
	}
}

// ExportImage snapshots the controller into a serializable image. The
// caller must have quiesced the datapath, flushed dirty cache lines, and
// run FlushOTT first (the shard fabric runs its flush log-record before
// exporting, which does all three). ExportImage itself mutates nothing —
// deliberately: the export is not an admission-log record, so any counter
// it perturbed would diverge a resumed source from its own log.
func (c *Controller) ExportImage() (*Image, error) {
	if !c.mode.FileEncryption {
		return nil, errors.New("memctrl: image export requires the FsEncr datapath")
	}
	img := &Image{
		ChipSeq: c.chipSeq,
		Root:    c.mt.Root(),
		Frames:  c.PCM.ExportFrames(),
		MECB:    make(map[uint64]counters.MECB, len(c.mecb)),
		FECB:    make(map[uint64]counters.FECB, len(c.fecb)),
		ECC:     make(map[uint64]uint64, len(c.ecc)),
		Entries: c.ottTable.Entries(),
		Buckets: c.ottRegion.ExportTable(),
	}
	for k, v := range c.mecb {
		img.MECB[k] = *v
	}
	for k, v := range c.fecb {
		img.FECB[k] = *v
	}
	for k, v := range c.ecc {
		img.ECC[k] = v
	}
	return img, nil
}

// Equal reports whether two images describe byte-identical module state:
// same chip sequence, Merkle root, device frames, counter blocks, ECC
// tags, OTT entries and sealed region. The migration install gate uses it
// to prove the replayed shard reproduced the source exactly — including
// data content the Merkle root (which covers only the metadata region)
// cannot vouch for.
func (img *Image) Equal(o *Image) bool {
	if o == nil || img.ChipSeq != o.ChipSeq || img.Root != o.Root {
		return false
	}
	if len(img.Frames) != len(o.Frames) || len(img.MECB) != len(o.MECB) ||
		len(img.FECB) != len(o.FECB) || len(img.ECC) != len(o.ECC) ||
		len(img.Entries) != len(o.Entries) || len(img.Buckets) != len(o.Buckets) {
		return false
	}
	for k, v := range img.Frames {
		if !bytes.Equal(v, o.Frames[k]) {
			return false
		}
	}
	for k, v := range img.MECB {
		if o.MECB[k] != v {
			return false
		}
	}
	for k, v := range img.FECB {
		if o.FECB[k] != v {
			return false
		}
	}
	for k, v := range img.ECC {
		if o.ECC[k] != v {
			return false
		}
	}
	for i, e := range img.Entries {
		if o.Entries[i] != e {
			return false
		}
	}
	for i, b := range img.Buckets {
		if len(b) != len(o.Buckets[i]) {
			return false
		}
		for j, s := range b {
			if o.Buckets[i][j] != s {
				return false
			}
		}
	}
	return true
}

// ErrImageRejected reports an image that does not authenticate against
// this controller: wrong chip sequence (keys), or a regenerated Merkle
// root that disagrees with the transported one.
var ErrImageRejected = errors.New("memctrl: image rejected")

// ImportImage adopts an image into a freshly built controller with the
// same configuration and chip sequence: device contents, counters, ECC
// tags and the sealed OTT region are installed, every counter is treated
// as durable, and the Merkle tree is regenerated and verified against the
// image root before the controller serves anything.
func (c *Controller) ImportImage(img *Image) error {
	if !c.mode.FileEncryption {
		return errors.New("memctrl: image import requires the FsEncr datapath")
	}
	if img.ChipSeq != c.chipSeq {
		return fmt.Errorf("%w: chip seq %d != %d", ErrImageRejected, img.ChipSeq, c.chipSeq)
	}
	c.PCM.ImportFrames(img.Frames)
	c.mecb = make(map[uint64]*counters.MECB, len(img.MECB))
	c.persistedMECB = make(map[uint64]counters.MECB, len(img.MECB))
	for k, v := range img.MECB {
		vv := v
		c.mecb[k] = &vv
		c.persistedMECB[k] = v
	}
	c.fecb = make(map[uint64]*counters.FECB, len(img.FECB))
	c.persistedFECB = make(map[uint64]counters.FECB, len(img.FECB))
	for k, v := range img.FECB {
		vv := v
		c.fecb[k] = &vv
		c.persistedFECB[k] = v
	}
	c.ecc = make(map[uint64]uint64, len(img.ECC))
	for k, v := range img.ECC {
		c.ecc[k] = v
	}
	if err := c.ottRegion.ImportTable(img.Buckets); err != nil {
		return fmt.Errorf("%w: %v", ErrImageRejected, err)
	}
	c.ottTable.Clear()
	for _, e := range img.Entries {
		c.ottTable.Insert(e)
	}
	c.unpersisted = make(map[uint64]int)
	c.clearMetaCaches()
	c.rebuildTreeFromCounters()
	if c.mt.Root() != img.Root {
		return fmt.Errorf("%w: regenerated Merkle root mismatch", ErrImageRejected)
	}
	c.st.Inc("mc.imports")
	return nil
}

// VerifyImage is the migration cutover gate: it rehydrates the image into
// a scratch controller (same config, mode and chip sequence), then runs
// the full crash/recovery cycle — Crash(true), Osiris Recover, and
// VerifyRecovery — against it. Success proves the shipped frames, counter
// blocks, ECC tags and sealed OTT region are mutually consistent and
// recoverable on the target, without ever touching the live controller.
func VerifyImage(cfg config.Config, mode Mode, img *Image) error {
	c := NewWithChipSeq(cfg, mode, stats.NewSet(), img.ChipSeq)
	if err := c.ImportImage(img); err != nil {
		return err
	}
	c.Crash(true)
	if err := c.Recover(); err != nil {
		return fmt.Errorf("memctrl: image recovery gate: %w", err)
	}
	if err := c.VerifyRecovery(); err != nil {
		return fmt.Errorf("memctrl: image recovery gate: %w", err)
	}
	return nil
}
