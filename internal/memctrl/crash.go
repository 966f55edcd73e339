package memctrl

import (
	"errors"
	"fmt"

	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/config"
	"fsencr/internal/counters"
)

// Crash simulates a power loss at the memory controller (§III-H): all
// volatile state — the metadata cache and any counter updates that were not
// yet persisted under the Osiris stop-loss discipline — is lost. If
// backupPower is true, the small (2 KB) OTT is flushed to the encrypted OTT
// region before power dies, as modern persistent processors do for their
// buffers; otherwise its entries are lost (keys must be re-derived from
// passphrases by the OS and re-installed).
//
// The Merkle root and the keys sealed in the processor survive (they are
// modelled as persistent processor registers/fuses).
func (c *Controller) Crash(backupPower bool) {
	if !c.mode.MemEncryption {
		return
	}
	c.crashed = true
	c.clearMetaCaches()
	if c.ottTable != nil {
		if backupPower {
			c.FlushOTT()
		}
		c.ottTable.Clear()
	}
	// The in-Go "current" counter maps model state whose most recent
	// increments lived only in the (now dead) metadata cache. Roll every
	// counter block back to its last persisted value; Recover must
	// reconstruct the rest from the ECC tags.
	c.preCrashMECB = c.mecb
	c.preCrashFECB = c.fecb
	c.preCrashRoot = c.mt.Root()
	c.mecb = make(map[uint64]*counters.MECB, len(c.persistedMECB))
	for page, m := range c.persistedMECB {
		mm := m
		c.mecb[page] = &mm
	}
	c.fecb = make(map[uint64]*counters.FECB, len(c.persistedFECB))
	for page, f := range c.persistedFECB {
		ff := f
		c.fecb[page] = &ff
	}
	c.unpersisted = make(map[uint64]int)
}

// ErrUnrecoverable reports that Osiris recovery failed for some line.
var ErrUnrecoverable = errors.New("memctrl: counter recovery failed")

// Recover runs Osiris recovery (§II-D, §III-H): for every written line, it
// searches the bounded window of counter candidates allowed by the
// stop-loss discipline, decrypting the NVM ciphertext with each candidate
// and accepting the one whose plaintext matches the line's ECC tag. The
// Merkle tree is then regenerated from the recovered counters and checked
// against the processor-resident root.
func (c *Controller) Recover() error {
	if !c.mode.MemEncryption {
		return nil
	}
	if !c.crashed {
		return errors.New("memctrl: Recover without Crash")
	}
	window := c.cfg.Security.StopLoss
	for lineNum, tag := range c.ecc {
		la := addr.Phys(lineNum * config.LineSize)
		page := la.PageNum()
		li := la.LineInPage()
		mecb, ok := c.mecb[page]
		if !ok {
			return fmt.Errorf("%w: no persisted MECB for page %d", ErrUnrecoverable, page)
		}
		fecb := c.fecb[page] // nil for never-tagged pages
		cipher := c.PCM.ReadLine(la)

		var fileEng *aesctr.Engine
		isFile := false
		if c.mode.FileEncryption && fecb != nil && (fecb.GroupID != 0 || fecb.FileID != 0) {
			if e, _, found := c.ottRegion.Lookup(fecb.GroupID, fecb.FileID); found {
				fileEng = c.crypt.engineFor(e.Key)
				isFile = true
			} else if k, found := c.ottTable.Lookup(fecb.GroupID, fecb.FileID); found {
				fileEng = c.crypt.engineFor(k)
				isFile = true
			}
		}

		found := false
		var memPad, filePad, plain aesctr.Line
	search:
		for dm := 0; dm <= window; dm++ {
			mMinor := int(mecb.Minor[li]) + dm
			if mMinor > config.MinorCounterMax {
				break // overflows are persisted eagerly; no wrap to search
			}
			c.crypt.mem.OTPInto(&memPad, memIV(page, li, mecb.Major, uint8(mMinor)))
			fileWindow := 0
			if isFile {
				fileWindow = window
			}
			for df := 0; df <= fileWindow; df++ {
				var fMinor int
				plain = cipher
				aesctr.XORInto(&plain, &memPad)
				if isFile {
					fMinor = int(fecb.Minor[li]) + df
					if fMinor > config.MinorCounterMax {
						break
					}
					fileEng.OTPInto(&filePad, fileIV(page, li, fecb.Major, uint8(fMinor)))
					aesctr.XORInto(&plain, &filePad)
				}
				if eccTag(&plain) == tag {
					mecb.Minor[li] = uint8(mMinor)
					if isFile {
						fecb.Minor[li] = uint8(fMinor)
					}
					found = true
					break search
				}
			}
		}
		if !found {
			return fmt.Errorf("%w: line %#x", ErrUnrecoverable, uint64(la))
		}
		c.st.Inc("mc.recovered_lines")
	}

	// Regenerate the tree and verify against the processor-held root.
	c.rebuildTreeFromCounters()
	if c.mt.Root() != c.preCrashRoot {
		return fmt.Errorf("memctrl: recovered Merkle root mismatch (tampering or unrecoverable counters)")
	}
	// Recovered counters are now, by construction, durable.
	for page, m := range c.mecb {
		c.persistedMECB[page] = *m
	}
	for page, f := range c.fecb {
		c.persistedFECB[page] = *f
	}
	c.crashed = false
	return nil
}

// VerifyRecovery checks (for tests) that recovery reproduced the exact
// pre-crash counter state. It returns a descriptive error on mismatch.
func (c *Controller) VerifyRecovery() error {
	for page, want := range c.preCrashMECB {
		got, ok := c.mecb[page]
		if !ok {
			return fmt.Errorf("memctrl: page %d MECB missing after recovery", page)
		}
		if *got != *want {
			return fmt.Errorf("memctrl: page %d MECB mismatch after recovery", page)
		}
	}
	for page, want := range c.preCrashFECB {
		got, ok := c.fecb[page]
		if !ok {
			return fmt.Errorf("memctrl: page %d FECB missing after recovery", page)
		}
		if *got != *want {
			return fmt.Errorf("memctrl: page %d FECB mismatch after recovery", page)
		}
	}
	return nil
}
