package memctrl

import (
	"testing"

	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/audit"
	"fsencr/internal/config"
	"fsencr/internal/stats"
)

// FuzzDatapath drives a live controller and its twin (same chip sequence)
// through an op sequence decoded from the fuzz input, four bytes an op:
// line and page writes with a repeat count (so a minor counter can cross
// its overflow), line, page and snapshot reads, file-key removal and
// re-install, lock/unlock, and data-bit flips. Every read is checked
// against a plaintext model: an intact line reads back its last write, a
// flipped one raises mc.data_ecc_errors, and a key-less or locked read of
// a file line never returns the plaintext. The twin runs the same ops,
// except that a snapshot read goes through SnapshotReadPage +
// ApplyReadDelta on the twin while the live controller runs ReadPageInto:
// plaintext, mc.reads, mc.data_ecc_errors, IntegrityViolations and audit
// records must agree.
func FuzzDatapath(f *testing.F) {
	// The seed corpus is testdata/fuzz/FuzzDatapath: every op kind, and a
	// file line written 128 times (its minor counters overflow on the last
	// write) then read straight back.
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*48 {
			ops = ops[:4*48]
		}
		newDatapathHarness(t).run(ops)
	})
}

const (
	fuzzPages = 4 // pages 0-1 memory-only, 2-3 DAX file pages
	fuzzLines = fuzzPages * config.LinesPerPage
)

type datapathHarness struct {
	t         *testing.T
	live      *Controller
	twin      *Controller
	rd        *Reader
	delta     ReadDelta
	now       config.Cycle
	gen       byte
	keyed     [2]bool // file of page 2+i has its key installed
	written   [fuzzLines]bool
	plain     [fuzzLines]aesctr.Line
	flipped   [fuzzLines]aesctr.Line // XOR of the bits flipped at rest
	eccErrors uint64                 // expected mc.data_ecc_errors
}

func newDatapathHarness(t *testing.T) *datapathHarness {
	h := &datapathHarness{t: t}
	mode := Mode{MemEncryption: true, FileEncryption: true}
	h.live = NewWithChipSeq(config.Default(), mode, stats.NewSet(), 77)
	h.twin = NewWithChipSeq(config.Default(), mode, stats.NewSet(), 77)
	h.rd = h.twin.NewReader()
	for _, c := range []*Controller{h.live, h.twin} {
		c.EnableAudit(0)
		for i := range h.keyed {
			c.InstallKey(0, 1, uint16(i+1), fileKey(byte(i+1)))
			c.TagPage(0, pageAddr(2+i), 1, uint16(i+1))
		}
	}
	h.keyed = [2]bool{true, true}
	return h
}

// pageAddr is page p's address, DF-tagged for the file pages.
func pageAddr(p int) addr.Phys {
	pa := addr.Phys(p * config.PageSize)
	if p >= 2 {
		pa = pa.WithDF()
	}
	return pa
}

// both applies fn to the live controller and its twin.
func (h *datapathHarness) both(fn func(c *Controller)) {
	fn(h.live)
	fn(h.twin)
}

// fileReadable reports whether page p's file pad is applied. Writes are
// modelled only while it is: a file-page write without its key or on a
// locked datapath stores the line under the memory pad only, which later
// keyed reads would rightly flag, so the harness skips such writes and
// every stored line stays keyed.
func (h *datapathHarness) fileReadable(p int) bool {
	return p < 2 || (h.keyed[p-2] && !h.live.Locked())
}

func (h *datapathHarness) run(ops []byte) {
	for i := 0; i+4 <= len(ops); i += 4 {
		op, a, b, c := ops[i]%8, ops[i+1], ops[i+2], ops[i+3]
		p, li := int(a)%fuzzPages, int(b)%config.LinesPerPage
		h.now += 1000
		switch op {
		case 0: // line write, repeated
			for n := 0; n <= int(c); n++ {
				h.writeLine(p, li)
			}
		case 1: // page write, repeated
			for n := 0; n <= int(b)%4; n++ {
				h.writePage(p)
			}
		case 2:
			h.readLine(p, li)
		case 3:
			h.readPage(p, false)
		case 4:
			h.readPage(p, true)
		case 5: // remove or re-install a file key
			fi := int(a) % 2
			if h.keyed[fi] {
				h.both(func(c *Controller) { c.RemoveKey(h.now, 1, uint16(fi+1)) })
			} else {
				h.both(func(c *Controller) { c.InstallKey(h.now, 1, uint16(fi+1), fileKey(byte(fi+1))) })
			}
			h.keyed[fi] = !h.keyed[fi]
		case 6:
			if h.live.Locked() {
				h.both((*Controller).Unlock)
			} else {
				h.both((*Controller).Lock)
			}
		case 7:
			bit := int(c) * 2 % (config.LineSize * 8)
			pa := pageAddr(p) + addr.Phys(li*config.LineSize)
			h.both(func(c *Controller) { c.FlipDataBit(pa, bit) })
			h.flipped[p*config.LinesPerPage+li][bit/8] ^= 1 << (bit % 8)
		}
		h.compareTwins()
	}
}

// nextLine returns fresh plaintext for one line write.
func (h *datapathHarness) nextLine() aesctr.Line {
	h.gen++
	var l aesctr.Line
	for i := range l {
		l[i] = h.gen*31 + byte(i)*7
	}
	return l
}

func (h *datapathHarness) writeLine(p, li int) {
	if !h.fileReadable(p) {
		return
	}
	l := h.nextLine()
	pa := pageAddr(p) + addr.Phys(li*config.LineSize)
	h.both(func(c *Controller) { c.WriteLine(h.now, pa, l) })
	h.store(p*config.LinesPerPage+li, l)
}

func (h *datapathHarness) writePage(p int) {
	if !h.fileReadable(p) {
		return
	}
	var pg aesctr.Page
	for li := 0; li < config.LinesPerPage; li++ {
		l := h.nextLine()
		copy(pg[li*config.LineSize:], l[:])
		h.store(p*config.LinesPerPage+li, l)
	}
	h.both(func(c *Controller) { c.WritePage(h.now, pageAddr(p), &pg) })
}

// store records a write: the line's plaintext, and fresh ciphertext that
// no longer carries earlier bit flips.
func (h *datapathHarness) store(n int, l aesctr.Line) {
	h.written[n], h.plain[n], h.flipped[n] = true, l, aesctr.Line{}
}

// check verifies one line read from page p against the model.
func (h *datapathHarness) check(p, li int, got *aesctr.Line, what string) {
	n := p*config.LinesPerPage + li
	if !h.written[n] {
		return // never written: decrypts to pad bytes
	}
	switch {
	case !h.fileReadable(p):
		if *got == h.plain[n] {
			h.t.Fatalf("%s page %d line %d: plaintext without file key or on a locked datapath", what, p, li)
		}
	case h.flipped[n] != aesctr.Line{}:
		h.eccErrors++
	case *got != h.plain[n]:
		h.t.Fatalf("%s page %d line %d: read back wrong plaintext", what, p, li)
	}
}

func (h *datapathHarness) readLine(p, li int) {
	pa := pageAddr(p) + addr.Phys(li*config.LineSize)
	got, _ := h.live.ReadLine(h.now, pa)
	twin, _ := h.twin.ReadLine(h.now, pa)
	if got != twin {
		h.t.Fatalf("line read page %d line %d: twins disagree", p, li)
	}
	h.check(p, li, &got, "line read")
}

// readPage reads page p with ReadPageInto on the live controller and, on
// the twin, with ReadPageInto or (snapshot) the snapshot fast path,
// falling back to ReadPageInto where it declines, as the server does.
func (h *datapathHarness) readPage(p int, snapshot bool) {
	var got, twin aesctr.Page
	h.live.ReadPageInto(h.now, pageAddr(p), &got)
	if snapshot && h.twin.SnapshotReadPage(h.rd, pageAddr(p), &twin, &h.delta) {
		h.twin.ApplyReadDelta(h.now, &h.delta)
	} else {
		h.delta.Reset()
		h.twin.ReadPageInto(h.now, pageAddr(p), &twin)
	}
	h.delta.Reset()
	if got != twin {
		h.t.Fatalf("page read page %d (snapshot %v): twins disagree", p, snapshot)
	}
	for li := 0; li < config.LinesPerPage; li++ {
		h.check(p, li, pageLine(&got, li), "page read")
	}
}

// compareTwins checks the side effects both controllers must agree on and
// the model's ECC-error count.
func (h *datapathHarness) compareTwins() {
	for _, name := range []string{"mc.reads", "mc.data_ecc_errors"} {
		if l, w := h.live.Stats().Get(name), h.twin.Stats().Get(name); l != w {
			h.t.Fatalf("%s: live %d, twin %d", name, l, w)
		}
	}
	if got := h.live.Stats().Get("mc.data_ecc_errors"); got != h.eccErrors {
		h.t.Fatalf("mc.data_ecc_errors = %d, model expects %d", got, h.eccErrors)
	}
	if l, w := h.live.IntegrityViolations(), h.twin.IntegrityViolations(); l != w {
		h.t.Fatalf("IntegrityViolations: live %d, twin %d", l, w)
	}
	lr, wr := h.live.Audit().Records(), h.twin.Audit().Records()
	if len(lr) != len(wr) {
		h.t.Fatalf("audit records: live %d, twin %d", len(lr), len(wr))
	}
	for i := range lr {
		if auditKey(lr[i]) != auditKey(wr[i]) {
			h.t.Fatalf("audit record %d: live %+v, twin %+v", i, lr[i], wr[i])
		}
	}
}

// auditKey is a record without its timestamp and chain: a deferred
// snapshot-read record is stamped at drain time, not at fetch time.
func auditKey(r audit.Record) audit.Record {
	r.Cycle, r.Chain = 0, [32]byte{}
	return r
}
