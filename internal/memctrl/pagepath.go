package memctrl

import (
	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/audit"
	"fsencr/internal/config"
	"fsencr/internal/counters"
)

// This file is the batched page-granularity datapath: WritePage and
// ReadPageInto move a whole 4 KB page through the controller in one call,
// producing byte-identical NVM contents and identical security state
// (counters, Merkle tree, Osiris persistence, ECC tags, journal) to 64
// line-granularity calls, while paying the per-page costs — counter-block
// fetch, key lookup, AES key schedule, Merkle-leaf MAC update — once
// instead of 64 times. Timing-wise the 64 line accesses are issued as one
// burst so the PCM bank stripe drains them in parallel.

// pageOverflowPending reports whether any line's minor counter sits at the
// overflow boundary in a counter domain the write will bump.
func (c *Controller) pageOverflowPending(page uint64, isFile bool) bool {
	m := c.getMECB(page)
	for _, v := range m.Minor {
		if v == config.MinorCounterMax {
			return true
		}
	}
	if isFile {
		f := c.getFECB(page)
		for _, v := range f.Minor {
			if v == config.MinorCounterMax {
				return true
			}
		}
	}
	return false
}

// writePageByLines is the page write's slow path: 64 chained WriteLine
// calls. Used when a minor counter will overflow mid-page, because the
// whole-page re-encryption must happen at exactly the overflowing line's
// turn for batched and sequential writes to stay state-identical.
func (c *Controller) writePageByLines(now config.Cycle, base addr.Phys, plain *aesctr.Page) config.Cycle {
	t := now
	var line aesctr.Line
	for li := 0; li < config.LinesPerPage; li++ {
		copy(line[:], plain[li*config.LineSize:(li+1)*config.LineSize])
		t = c.WriteLine(t, base+addr.Phys(li*config.LineSize), line)
	}
	return t
}

// touchDirtyCounterBatch coalesces the 64 per-line counter touches of a
// page write into one metadata-cache and Merkle-leaf update while
// reproducing the exact Osiris stop-loss schedule of 64 sequential
// touchDirtyCounter calls: the same number of write-throughs, a persisted
// snapshot taken at the same (possibly mid-page) bump, and the same
// residual unpersisted count. content must be the block's encoding after
// all 64 bumps. Returns the counter-ready time and the index of the last
// line whose bump crossed the stop-loss boundary (-1 if none persisted);
// the caller reconstructs the mid-page snapshot from it.
func (c *Controller) touchDirtyCounterBatch(now config.Cycle, metaAddr uint64, leaf int, content []byte) (config.Cycle, int) {
	c.mcacheFor(metaAddr).Lookup(metaAddr, true) // mark dirty (present: just fetched)
	c.insertMeta(now, metaAddr, true)
	c.mt.Update(leaf, content)
	c.mtPath = c.mt.AppendPathNodes(c.mtPath[:0], leaf)
	for _, n := range c.mtPath {
		c.insertMeta(now, mtNodeAddr(n), true)
	}

	// Replay the stop-loss arithmetic of 64 consecutive bumps without the
	// 64 map round-trips: starting from the current unpersisted count, a
	// write-through fires every StopLoss-th bump.
	u := c.unpersisted[metaAddr]
	stopLoss := c.cfg.Security.StopLoss
	persists := 0
	lastBumped := -1
	for li := 0; li < config.LinesPerPage; li++ {
		u++
		if u >= stopLoss {
			u = 0
			persists++
			lastBumped = li
		}
	}
	ready := now + c.cfg.Security.MACLatency // one MT MAC update for the batch
	for i := 0; i < persists; i++ {
		c.PCM.Access(ready, addr.Phys(metaAddr), true)
	}
	if persists > 0 {
		c.st.Add("mc.stoploss_persists", uint64(persists))
	}
	if u == 0 {
		c.mcacheFor(metaAddr).Clean(metaAddr)
		delete(c.unpersisted, metaAddr)
	} else {
		c.unpersisted[metaAddr] = u
	}
	return ready, lastBumped
}

// issuePageWrites claims one persistence-domain slot per line (the burst's
// accept rate), schedules the 64 bank writes with per-line data-ready
// times, and posts their completions to the write queue. Line li's write
// may start once its slot is claimed and its data (pad pipeline) is ready
// at dataReady0+li. Returns the last accept time — the page store
// sequence's ADR point.
func (c *Controller) issuePageWrites(now, firstAccept config.Cycle, raw addr.Phys, dataReady0 config.Cycle) config.Cycle {
	accept := firstAccept
	for li := 0; li < config.LinesPerPage; li++ {
		if li > 0 {
			accept = c.acceptSlot(accept)
		}
		start := dataReady0 + config.Cycle(li)
		if accept > start {
			start = accept
		}
		c.pageStartScratch[li] = start
	}
	c.PCM.AccessPage(now, raw, true, &c.pageStartScratch, &c.pageDoneScratch)
	c.writeQueue = append(c.writeQueue, c.pageDoneScratch[:]...)
	c.tWriteAccept.Observe(uint64(accept - now))
	return accept
}

// WritePage services a full-page store (page-cache write-back, DAX page
// copy) arriving at time now, carrying plaintext plain. It is functionally
// and security-state equivalent to 64 chained WriteLine calls over the
// page's lines, but fetches counter blocks, resolves the file key,
// updates the Merkle leaf, and checks overflow once per page. Returns the
// time the last line is accepted into the persistence domain.
func (c *Controller) WritePage(now config.Cycle, pa addr.Phys, plain *aesctr.Page) (done config.Cycle) {
	if ts := c.trace; ts.Active() {
		ts.Enter()
		defer func() { ts.Exit("memctrl", "write_page", uint64(now), uint64(done), 0) }()
	}
	c.noteCycle(now)
	base := pa.PageAlign()
	raw := base.Raw()
	isFile := base.IsDF() && c.fileActive()

	// Rare mid-page minor-counter overflow: re-encryption must interleave
	// at the overflowing line's turn, so take the sequential path.
	if c.mode.MemEncryption && c.pageOverflowPending(base.PageNum(), isFile) {
		return c.writePageByLines(now, base, plain)
	}

	c.st.Add("mc.writes", config.LinesPerPage)
	c.retireWrites(now)
	accepted := c.acceptSlot(now)

	if !c.mode.MemEncryption {
		c.PCM.WritePageFrom(raw, plain)
		return c.issuePageWrites(now, accepted, raw, accepted)
	}

	page := base.PageNum()
	mecb, ctrReady := c.fetchMECB(accepted, page)
	// No overflow possible (pre-checked), so all 64 bumps are plain
	// minor-counter increments; the Merkle leaf gets the post-bump block.
	for li := 0; li < config.LinesPerPage; li++ {
		mecb.Bump(li)
	}
	ctrReady, lastBumped := c.touchDirtyCounterBatch(ctrReady, mecbAddr(page), mecbLeaf(page), c.encMECB(mecb))
	if lastBumped >= 0 {
		// The Osiris snapshot was taken mid-batch: lines after lastBumped
		// had not been bumped yet when the write-through fired.
		snap := *mecb
		for li := lastBumped + 1; li < config.LinesPerPage; li++ {
			snap.Minor[li]--
		}
		c.persistedMECB[page] = snap
	}

	var fecb *counters.FECB
	var fReady config.Cycle
	if isFile {
		fecb, fReady = c.fetchFECB(accepted, page)
		c.auditPage(fReady, audit.OpWritePage, page, fecb.GroupID, fecb.FileID)
		for li := 0; li < config.LinesPerPage; li++ {
			fecb.Bump(li)
		}
		var fLastBumped int
		fReady, fLastBumped = c.touchDirtyCounterBatch(fReady, fecbAddr(page), fecbLeaf(page), c.encFECB(fecb))
		if fLastBumped >= 0 {
			snap := *fecb
			for li := fLastBumped + 1; li < config.LinesPerPage; li++ {
				snap.Minor[li]--
			}
			c.persistedFECB[page] = snap
		}
	}

	// The page's OTPs pipeline through the AES engine: line 0's pad after
	// one traversal, each following line one cycle behind.
	pad, otpReady0, xors := c.cryptPad(page, 0, config.LinesPerPage, mecb, ctrReady, fecb, fReady)
	c.setECC(page, 0, plain[:])
	// Encrypt into the pad buffer (pad ^= plain), leaving the caller's
	// plaintext untouched, and land the ciphertext page in one store.
	aesctr.XORPageInto(pad, plain)
	c.PCM.WritePageFrom(raw, pad)
	return c.issuePageWrites(now, accepted, raw, otpReady0+xors*c.cfg.Security.XORLatency)
}

// ReadPageInto services a full-page fetch (page-cache fill, DAX page read)
// into dst, returning the completion time. Equivalent plaintext to 64
// ReadLine calls, with the counter fetch, key lookup, and OTP template
// setup paid once; the PCM side issues all 64 line reads as one burst.
func (c *Controller) ReadPageInto(now config.Cycle, pa addr.Phys, dst *aesctr.Page) (done config.Cycle) {
	if ts := c.trace; ts.Active() {
		ts.Enter()
		defer func() { ts.Exit("memctrl", "read_page", uint64(now), uint64(done), 0) }()
	}
	c.noteCycle(now)
	base := pa.PageAlign()
	raw := base.Raw()
	c.st.Add("mc.reads", config.LinesPerPage)
	c.PCM.ReadPageInto(raw, dst)
	dataDone := c.PCM.AccessPage(now, raw, false, nil, nil)
	if !c.mode.MemEncryption {
		return dataDone
	}

	pad, otpReady, xors, complete := c.readPad(now, base, 0, config.LinesPerPage)
	done = maxCycle(dataDone, otpReady) + xors*c.cfg.Security.XORLatency
	c.tReadCycles.Observe(uint64(done - now))
	aesctr.XORPageInto(dst, pad)
	if complete {
		c.emitECC(done, base.PageNum(), c.eccMismatches(base.PageNum(), 0, dst[:]))
	}
	return done
}
