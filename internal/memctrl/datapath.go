package memctrl

import (
	"encoding/binary"
	"math/bits"
	"strconv"

	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/audit"
	"fsencr/internal/config"
	"fsencr/internal/counters"
	"fsencr/internal/obsplane/journal"
)

// ReadLine services a last-level-cache miss for the line containing pa,
// arriving at the controller at time now. It returns the plaintext line and
// the completion time (Figure 7, read operation).
func (c *Controller) ReadLine(now config.Cycle, pa addr.Phys) (aesctr.Line, config.Cycle) {
	c.noteCycle(now)
	la := pa.LineAlign()
	raw := la.Raw()
	cipher := c.PCM.ReadLine(raw)
	c.st.Inc("mc.reads")
	// Data array access and counter fetch proceed in parallel (CTR mode
	// hides OTP generation under the array access when counters hit).
	dataDone := c.PCM.Access(now, raw, false)
	if !c.mode.MemEncryption {
		return cipher, dataDone
	}

	li := la.LineInPage()
	pad, otpReady, xors, complete := c.readPad(now, la, li, li+1)
	done := maxCycle(dataDone, otpReady) + xors*c.cfg.Security.XORLatency
	c.tReadCycles.Observe(uint64(done - now))
	aesctr.XORInto(&cipher, pageLine(pad, li))
	if complete {
		c.emitECC(done, la.PageNum(), c.eccMismatches(la.PageNum(), li, cipher[:]))
	}
	return cipher, done
}

// readPad fetches the counter blocks of the page holding la and builds the
// read pad of lines [lo, hi). A full-page read of a file page is audited.
// The span's pads pipeline through the AES engine one issue slot per line,
// so ready is when the last of them is. complete reports whether the pad
// holds every component the data was written under: a DF line whose file
// pad could not be applied (missing key, locked datapath) deliberately
// decrypts to garbage and must not be checked against its ECC tag.
func (c *Controller) readPad(now config.Cycle, la addr.Phys, lo, hi int) (pad *aesctr.Page, ready, xors config.Cycle, complete bool) {
	page := la.PageNum()
	mecb, ctrReady := c.fetchMECB(now, page)
	var fecb *counters.FECB
	var fReady config.Cycle
	if la.IsDF() && c.fileActive() {
		fecb, fReady = c.fetchFECB(now, page)
		if hi-lo == config.LinesPerPage {
			c.auditPage(fReady, audit.OpReadPage, page, fecb.GroupID, fecb.FileID)
		}
	}
	pad, ready, xors = c.cryptPad(page, lo, hi, mecb, ctrReady, fecb, fReady)
	complete = xors > 1 || !(la.IsDF() && c.mode.FileEncryption)
	return pad, ready + config.Cycle(hi-lo-1), xors, complete
}

// cryptPad builds the pad of lines [lo, hi) of page from its final
// counters: the memory block mecb, usable at ctrReady, and for a DF access
// on an active file datapath the file block fecb (nil otherwise), usable
// at fReady, whose file key it resolves. Returns the pad, when the span's
// first pad is ready, and how many pads the data passes through (1 or 2).
func (c *Controller) cryptPad(page uint64, lo, hi int, mecb *counters.MECB, ctrReady config.Cycle, fecb *counters.FECB, fReady config.Cycle) (*aesctr.Page, config.Cycle, config.Cycle) {
	ready := ctrReady + c.crypt.mem.Latency()
	xors := config.Cycle(1)
	var fe *aesctr.Engine
	if fecb != nil {
		var kReady config.Cycle
		fe, kReady = c.fileEngine(fReady, page, fecb, hi-lo)
		if fe != nil {
			ready = maxCycle(ready, kReady+c.cfg.Security.AESLatency)
			xors++
		}
	}
	return c.crypt.padSpan(page, lo, hi, mecb, fe, fecb), ready, xors
}

// fileEngine resolves the file key named by f's (GroupID, FileID) tag for
// an access of n lines of page. Without a key (deleted file or stale tag:
// the DF bit promised a tunnel that is not open) each line is counted and
// journalled as a DF mismatch and the engine is nil, so the lines carry
// the memory pad only and read as unintelligible bytes — exactly the §VI
// guarantee.
func (c *Controller) fileEngine(now config.Cycle, page uint64, f *counters.FECB, n int) (*aesctr.Engine, config.Cycle) {
	key, ready, ok := c.lookupKey(now, f.GroupID, f.FileID)
	if ok {
		return c.crypt.engineFor(key), ready
	}
	c.st.Add("mc.key_unavailable", uint64(n))
	for i := 0; i < n; i++ {
		c.jrn.Emit(journal.Event{Cycle: uint64(ready), Type: journal.DFMismatch,
			Page: page, Group: f.GroupID, File: f.FileID})
	}
	return nil, ready
}

// eccMismatches checks decrypted lines against the Osiris check tags in
// their ECC bits: plain holds lines lo, lo+1, ... of page, and bit li of
// the result is set when line li's plaintext disagrees with its tag. Lines
// without a tag (never written, or shredded) and the post-crash
// pre-recovery window (counters are rolled back by design) are skipped.
func (c *Controller) eccMismatches(page uint64, lo int, plain []byte) uint64 {
	if c.crashed {
		return 0
	}
	var mask uint64
	lineNum := page * config.LinesPerPage
	for i := 0; i < len(plain)/config.LineSize; i++ {
		li := lo + i
		tag, ok := c.ecc[lineNum+uint64(li)]
		if ok && eccTag((*aesctr.Line)(plain[i*config.LineSize:(i+1)*config.LineSize])) != tag {
			mask |= 1 << li
		}
	}
	return mask
}

// emitECC reports the lines set in mask as check-tag mismatches. A
// mismatch means the ciphertext at rest was corrupted or tampered with
// (bit rot, torn write, physical attacker) — the plaintext the caller
// receives is garbage, and silently returning it would defeat the
// integrity story, so each line is counted and journalled like a Merkle
// verification failure.
func (c *Controller) emitECC(now config.Cycle, page uint64, mask uint64) {
	for ; mask != 0; mask &= mask - 1 {
		c.violations++
		c.st.Inc("mc.data_ecc_errors")
		c.jrn.Emit(journal.Event{Cycle: uint64(now), Type: journal.DataECCError,
			Page: page, Detail: "line " + strconv.Itoa(bits.TrailingZeros64(mask))})
	}
}

// setECC records the Osiris check tags of a write: plain holds the
// plaintext of lines lo, lo+1, ... of page. The line's ECC bits carry a
// check tag over the plaintext, so the counter used for this write is
// recoverable after a crash.
func (c *Controller) setECC(page uint64, lo int, plain []byte) {
	lineNum := page*config.LinesPerPage + uint64(lo)
	for i := 0; i < len(plain)/config.LineSize; i++ {
		c.ecc[lineNum+uint64(i)] = eccTag((*aesctr.Line)(plain[i*config.LineSize : (i+1)*config.LineSize]))
	}
}

// WriteLine services a dirty writeback (or flush) of the line containing
// pa, carrying plaintext plain. It returns the time the write is accepted
// into the controller's persistence domain — the point an SFENCE may
// proceed past (ADR semantics). Encryption, counter updates, and the PCM
// array write continue in the background (Figure 7, write operation),
// applying backpressure only when the write queue fills.
func (c *Controller) WriteLine(now config.Cycle, pa addr.Phys, plain aesctr.Line) config.Cycle {
	c.noteCycle(now)
	la := pa.LineAlign()
	raw := la.Raw()
	c.st.Inc("mc.writes")
	accepted := c.acceptWrite(now)

	if !c.mode.MemEncryption {
		c.PCM.WriteLine(raw, plain)
		done := c.PCM.Access(accepted, raw, true)
		c.writeQueue = append(c.writeQueue, done)
		return accepted
	}

	page := la.PageNum()
	li := la.LineInPage()

	mecb, ctrReady := c.fetchMECB(accepted, page)
	// Minor-counter overflow forces a whole-page re-encryption under the
	// incremented major counter before this write can proceed.
	overflowed := mecb.Minor[li] == config.MinorCounterMax
	if overflowed {
		ctrReady = c.reencryptPageMem(ctrReady, page, li)
	} else {
		mecb.Bump(li)
	}
	ctrReady = c.touchDirtyCounter(ctrReady, mecbAddr(page), mecbLeaf(page), c.encMECB(mecb))
	if overflowed {
		// Major bumps are persisted eagerly so the Osiris recovery window
		// never has to search across a counter wrap (§III-H).
		c.persistCounterNow(ctrReady, mecbAddr(page))
	}

	var fecb *counters.FECB
	var fReady config.Cycle
	if la.IsDF() && c.fileActive() {
		fecb, fReady = c.fetchFECB(accepted, page)
		fileOverflowed := fecb.Minor[li] == config.MinorCounterMax
		if fileOverflowed {
			fReady = c.reencryptPageFile(fReady, page, li)
		} else {
			fecb.Bump(li)
		}
		fReady = c.touchDirtyCounter(fReady, fecbAddr(page), fecbLeaf(page), c.encFECB(fecb))
		if fileOverflowed {
			c.persistCounterNow(fReady, fecbAddr(page))
		}
	}

	pad, otpReady, xors := c.cryptPad(page, li, li+1, mecb, ctrReady, fecb, fReady)
	c.setECC(page, li, plain[:])
	line := pageLine(pad, li)
	aesctr.XORInto(line, &plain)
	done := c.PCM.Access(otpReady+xors*c.cfg.Security.XORLatency, raw, true)
	c.PCM.WriteLine(raw, *line)
	c.writeQueue = append(c.writeQueue, done)
	c.tWriteAccept.Observe(uint64(accepted - now))
	return accepted
}

// fileActive reports whether the file-encryption datapath should engage.
func (c *Controller) fileActive() bool {
	return c.mode.FileEncryption && !c.locked
}

// reencryptPageMem handles a memory-side minor overflow on page: every line
// is read, stripped of its old memory OTP, and rewritten under the new
// major counter. Costs 64 reads + 64 writes of the page plus AES work.
func (c *Controller) reencryptPageMem(now config.Cycle, page uint64, bumpLine int) config.Cycle {
	c.st.Inc("mc.mem_reencryptions")
	m := c.mecb[page]
	old := *m
	r := m.Bump(bumpLine) // wraps: major++, minors reset, minor[bumpLine]=1
	counters.JournalBump(c.jrn, uint64(now), page, counters.DomainMem, r)
	done := c.reencryptLines(now, page, func(li int, oldPad, newPad *aesctr.Line) {
		c.crypt.mem.OTPInto(oldPad, memIV(page, li, old.Major, old.Minor[li]))
		c.crypt.mem.OTPInto(newPad, memIV(page, li, m.Major, m.Minor[li]))
	})
	c.span("memctrl", "reencrypt_mem", uint64(now), uint64(done))
	c.jrn.Emit(journal.Event{Cycle: uint64(now), Type: journal.PageReencryptMem, Page: page})
	return done
}

// reencryptPageFile handles a file-side minor overflow, analogous to
// reencryptPageMem but swapping only the file OTP component.
func (c *Controller) reencryptPageFile(now config.Cycle, page uint64, bumpLine int) config.Cycle {
	c.st.Inc("mc.file_reencryptions")
	f := c.fecb[page]
	old := *f
	r := f.Bump(bumpLine)
	counters.JournalBump(c.jrn, uint64(now), page, counters.DomainFile, r)
	key, _, ok := c.lookupKey(now, f.GroupID, f.FileID)
	if !ok {
		return now
	}
	eng := c.crypt.engineFor(key)
	done := c.reencryptLines(now, page, func(li int, oldPad, newPad *aesctr.Line) {
		eng.OTPInto(oldPad, fileIV(page, li, old.Major, old.Minor[li]))
		eng.OTPInto(newPad, fileIV(page, li, f.Major, f.Minor[li]))
	})
	c.span("memctrl", "reencrypt_file", uint64(now), uint64(done))
	c.jrn.Emit(journal.Event{Cycle: uint64(now), Type: journal.PageReencryptFile,
		Page: page, Group: f.GroupID, File: f.FileID})
	return done
}

// reencryptLines rewrites every line of page, swapping oldPad for newPad.
// The pads callback fills caller-owned buffers so the 64-line sweep works
// without any per-line Line copies.
func (c *Controller) reencryptLines(now config.Cycle, page uint64, pads func(li int, oldPad, newPad *aesctr.Line)) config.Cycle {
	t := now
	base := addr.Phys(page * config.PageSize)
	oldPad, newPad := &c.reOld, &c.reNew
	for li := 0; li < config.LinesPerPage; li++ {
		la := base + addr.Phys(li*config.LineSize)
		pads(li, oldPad, newPad)
		cipher := c.PCM.ReadLine(la)
		t = c.PCM.Access(t, la, false)
		aesctr.XORInto(&cipher, oldPad)
		aesctr.XORInto(&cipher, newPad)
		c.PCM.WriteLine(la, cipher)
		t = c.PCM.Access(t, la, true)
	}
	return t + 2*c.cfg.Security.AESLatency
}

func memIV(page uint64, li int, major uint64, minor uint8) aesctr.IV {
	return aesctr.IV{
		PageID:     page,
		LineInPage: uint8(li),
		Major:      major,
		Minor:      minor,
		Domain:     aesctr.DomainMemory,
	}
}

func fileIV(page uint64, li int, major uint32, minor uint8) aesctr.IV {
	return aesctr.IV{
		PageID:     page,
		LineInPage: uint8(li),
		Major:      uint64(major),
		Minor:      minor,
		Domain:     aesctr.DomainFile,
	}
}

// eccTag computes the Osiris check tag stored in a line's ECC bits: a
// 64-bit digest of the plaintext. After a crash, a candidate counter is
// correct exactly when decrypting with it reproduces a plaintext matching
// the tag.
//
// The tag models ECC bits, not a security boundary: integrity against an
// adversary comes from the Merkle tree over the counters, and the tag only
// lets recovery distinguish a handful of counter candidates (a wrong
// candidate yields effectively random plaintext, so 64 bits of a decent
// mixer are ample). It is therefore a word-wise FNV-1a variant with a
// final avalanche, not SHA-256 — the hash runs once per NVM write, and a
// cryptographic digest there cost more host time than the simulated write
// itself.
func eccTag(plain *aesctr.Line) uint64 {
	const (
		offset64 = 1469598103934665603
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < config.LineSize; i += 8 {
		h ^= binary.LittleEndian.Uint64(plain[i : i+8])
		h *= prime64
	}
	// Final avalanche (splitmix64 tail) so low-byte differences reach every
	// tag bit.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func maxCycle(a, b config.Cycle) config.Cycle {
	if a > b {
		return a
	}
	return b
}
