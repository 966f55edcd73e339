package main

// The traced run of the file workloads. It first repeats the end-to-end
// closed loop with the benchmark's own spans recorded around every client
// call and every HTTP handler (the traced ops_s beside the untraced one is
// the tracing overhead), reading the program's counters before and after.
// It then replays one seeded op stream from one caller, each op at every
// layer's public entry point in turn before the next op starts. Every rung
// has its own copy of the program, set up alike, so each meets an op in
// the same state (see runRungs):
//
//	rung 1  fsclient.Client.Read/Write over HTTP    fsclient.call_us, and
//	        (the same calls, seen by a wrapper       server.handler_us
//	        around Service.Mux joined on the X-Fsencr-Trace ID)
//	rung 2  server.Service.Read/Write, on a second   server.service_us
//	        service
//	rung 3  kernel.System.SnapshotRead, or           kernel.syscall_us
//	        OpenFile + Process.Write + Persist, on kernel.Boot systems
//	        configured like the shards (telemetry, journal, audit) holding
//	        the same files
//	rung 4  memctrl.Controller.SnapshotReadPage,     memctrl.op_us
//	        WritePage and WriteLine, the controller calls rung 3 makes, on
//	        a second set of such systems
//	rung 5  aesctr OTPPageInto/OTPInto + XOR for     aesctr.pad_us
//	        the memory and file pads rung 4 needed
//
// A layer's self time is its rung minus the rung below. Each rung takes
// the path the service takes: reads go through the snapshot fast path the
// service serves most reads from, writes through the kernel's syscalls. The
// ladder runs with GOMAXPROCS 1, so the service decrypts a large read's
// pages one after another, as rung 3 does, rather than over its crypt
// pool, whose size follows GOMAXPROCS. Each rung's work then nests in the
// rung above. Rung 3's systems are set up like the shards but are not the
// service's own: on file-large writes the shards' syscalls measured about
// 4% cheaper, so server.self_us.write can read a little below zero there.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"fsencr/internal/addr"
	"fsencr/internal/aesctr"
	"fsencr/internal/audit"
	"fsencr/internal/config"
	"fsencr/internal/core"
	"fsencr/internal/fs"
	"fsencr/internal/fsclient"
	"fsencr/internal/fsproto"
	"fsencr/internal/kernel"
	"fsencr/internal/memctrl"
	"fsencr/internal/obsplane/journal"
	"fsencr/internal/server"
	"fsencr/internal/telemetry"
)

// maxSpans caps the spans kept for the Chrome trace.
const maxSpans = 50_000

// ladderStream is the op stream the ladder replays, distinct from every
// caller's stream of the same seed.
const ladderStream = 1 << 16

// span is one interval the benchmark timed, relative to the run start.
type span struct {
	Name  string
	Cat   string
	Start time.Duration
	Dur   time.Duration
	Tid   int
	Trace string
}

type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	drops int
}

func (l *spanLog) add(name, cat string, start time.Time, dur time.Duration, tid int, trace string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.drops++
		return
	}
	l.spans = append(l.spans, span{name, cat, start.Sub(l.t0), dur, tid, trace})
}

func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		ev := event{Name: s.Name, Cat: s.Cat, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3, Pid: 1, Tid: s.Tid}
		if s.Trace != "" {
			ev.Args = map[string]any{"trace": s.Trace}
		}
		evs = append(evs, ev)
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// handlerSpans times every request inside the HTTP server, keyed by the
// request ID the client sees, so a client span can find its handler span.
type handlerSpans struct {
	mu   sync.Mutex
	byID map[string][2]time.Time
}

func (h *handlerSpans) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		tc, ok := fsproto.ParseTraceContext(r.Header.Get(fsproto.TraceHeader))
		if !ok {
			return
		}
		h.mu.Lock()
		h.byID[fsproto.FormatRequestID(tc.TraceID)] = [2]time.Time{start, end}
		h.mu.Unlock()
	})
}

// take removes and returns the handler span of request id. The handler
// returns before the server flushes the end of the response, so the span
// is stored before the client call can return.
func (h *handlerSpans) take(id string) ([2]time.Time, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.byID[id]
	delete(h.byID, id)
	return s, ok
}

func (h *handlerSpans) reset() {
	h.mu.Lock()
	h.byID = make(map[string][2]time.Time)
	h.mu.Unlock()
}

// rungTimes accumulates one rung's per-kind host time and allocations.
type rungTimes struct {
	ns     [2]time.Duration // [read, write]
	n      [2]int
	allocs uint64
	bytes  uint64
}

func (t *rungTimes) note(write bool, d time.Duration) {
	k := 0
	if write {
		k = 1
	}
	t.ns[k] += d
	t.n[k]++
}

func (t *rungTimes) meanUs(write bool) float64 {
	k := 0
	if write {
		k = 1
	}
	if t.n[k] == 0 {
		return 0
	}
	return float64(t.ns[k]) / float64(t.n[k]) / 1e3
}

// counters reads the program's own counters from every shard: the
// controller's stats (on the shard worker, through DoSide), the shard's
// telemetry registry, and the service's host-side registry.
func counters(svc *server.Service) (map[string]uint64, error) {
	out := make(map[string]uint64)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, sh := range svc.Shards() {
		var st map[string]uint64
		if err := sh.DoSide(ctx, func() { st = sh.Sys.M.Stats().Snapshot() }); err != nil {
			return nil, err
		}
		for k, v := range st {
			out[k] += v
		}
		for k, v := range sh.Snapshot().Counters {
			out[k] += v
		}
	}
	for k, v := range svc.MetricsSnapshot().Counters {
		out[k] += v
	}
	return out, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// countMetrics adds the per-op counts of one timed phase from counter
// deltas. opBytes is the payload bytes the phase's ops requested.
func countMetrics(r *result, d func(string) float64, ops int, opBytes float64) {
	n := float64(ops)
	lines := d("mc.reads") + d("mc.writes")
	r.add("memctrl.meta_hit_ratio", ratio(d("mc.meta_hits"), d("mc.meta_hits")+d("mc.meta_misses")), "ratio", ops)
	r.add("memctrl.lines_per_op", ratio(lines, n), "count", ops)
	r.add("memctrl.useful_byte_ratio", ratio(opBytes, config.LineSize*lines), "ratio", ops)
	r.add("merkle.updates_per_op", ratio(d("merkle.updates"), n), "count", ops)
	r.add("merkle.flushes_per_op", ratio(d("merkle.flushes"), n), "count", ops)
	r.add("pcm.reads_per_op", ratio(d("pcm.reads"), n), "count", ops)
	r.add("pcm.writes_per_op", ratio(d("pcm.writes"), n), "count", ops)
	r.add("ott.hit_ratio", ratio(d("mc.ott_hits"), d("mc.ott_hits")+d("mc.ott_misses")), "ratio", ops)
	r.add("kernel.faults_per_op", ratio(d("kernel.page_faults"), n), "count", ops)
}

// gcMetrics adds the collector's work between two MemStats readings. The
// collections the benchmark forces (runtime.GC) are not counted.
func gcMetrics(r *result, a, b *runtime.MemStats, ops int) {
	var maxPause uint64
	for g := a.NumGC + 1; g <= b.NumGC && b.NumGC-g < 256; g++ {
		maxPause = max(maxPause, b.PauseNs[(g+255)%256])
	}
	gcs := (b.NumGC - a.NumGC) - (b.NumForcedGC - a.NumForcedGC)
	r.add("runtime.gc_per_kop", ratio(float64(gcs), float64(ops)/1000), "count", ops)
	r.add("runtime.gc_pause_ms", float64(maxPause)/1e6, "ms", int(b.NumGC-a.NumGC))
}

func runLadder(w *fileWorkload, o options) (*result, error) {
	res := &result{Correct: true}
	total := time.Duration(o.seconds * float64(time.Second))
	sl := &spanLog{t0: time.Now(), spans: make([]span, 0, maxSpans)}
	hs := &handlerSpans{}
	hs.reset()
	m := newModel(w, o.seed)
	env, err := bootFiles(w, m, hs.wrap)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	hs.reset()

	// Traced closed loop: the end-to-end mix with spans on.
	before, err := counters(env.svc)
	if err != nil {
		env.close()
		return nil, err
	}
	var msA, msB runtime.MemStats
	runtime.ReadMemStats(&msA)
	pr := runCallers(env, m, o.seed, total*2/5, func(caller int, c *fsclient.Client, op op, start time.Time, lat time.Duration) {
		id := c.LastRequestID
		sl.add(opName(op), "fsclient", start, lat, caller, id)
		if s, ok := hs.take(id); ok {
			sl.add("handler", "server", s[0], s[1].Sub(s[0]), caller, id)
		}
	})
	runtime.ReadMemStats(&msB)
	after, err := counters(env.svc)
	auditErr := env.svc.VerifyAudit()
	env.close()
	if err != nil {
		return nil, err
	}
	if auditErr != nil {
		res.problem(true, "audit chain: %v", auditErr)
	}
	d := func(k string) float64 { return float64(after[k] - before[k]) }
	ops := pr.attempted() - pr.failed
	res.Attempted, res.Failed = pr.attempted(), pr.failed
	pr.report(res, "")
	if pr.mismatches > 0 {
		res.problem(true, "%d reads returned content other than the last write", pr.mismatches)
	}
	res.add("trace.ops_s", float64(ops)/pr.elapsed.Seconds(), "1/s", ops)
	res.add("error_rate", ratio(float64(pr.failed), float64(pr.attempted())), "ratio", pr.attempted())
	countMetrics(res, d, ops, float64(ops*w.opSize))
	res.add("server.fast_read_ratio", ratio(d("server.fast_reads_total"), d("server.fast_reads_total")+d("server.fast_read_fallbacks_total")), "ratio", pr.reads())
	res.add("server.busy_ratio", ratio(d("server.busy_rejections_total"), d("server.requests_total")), "ratio", pr.attempted())
	gcMetrics(res, &msA, &msB, ops)
	if err := runRungs(w, o.seed, total/2, res, sl, hs); err != nil {
		return nil, err
	}
	res.Trace = sl.spans
	if sl.drops > 0 {
		fmt.Printf("  note: %d spans beyond the %d-span cap were not kept\n", sl.drops, maxSpans)
	}
	return res, nil
}

// runRungs runs the ladder for d. One caller replays one op stream over
// all tenants, with GOMAXPROCS 1. Every rung has its own copy of the
// program, set up alike and fed the same ops: two services (rung 1 over
// HTTP, rung 2 by direct calls) and two kernel system sets (rung 3, and
// rung 4, whose controller calls are the ones rung 3's syscalls make). So
// each rung meets an op in the state the rung above met it in, with the
// same simulated caches warm or cold. Each op runs at every rung in turn
// before the next op starts, so all rungs run under the same host
// conditions and a drift of the host's speed cancels in their
// differences.
func runRungs(w *fileWorkload, seed uint64, d time.Duration, res *result, sl *spanLog, hs *handlerSpans) error {
	// Collect the closed loop's service before booting four more copies.
	runtime.GC()
	m1, m2 := newModel(w, seed), newModel(w, seed)
	s1, err := bootFiles(w, m1, hs.wrap)
	if err != nil {
		return fmt.Errorf("fsclient rung set-up: %w", err)
	}
	defer s1.close()
	hs.reset()
	s2, err := bootFiles(w, m2, nil)
	if err != nil {
		return fmt.Errorf("service rung set-up: %w", err)
	}
	defer s2.close()
	sess, err := serviceSessions(s2)
	if err != nil {
		return err
	}
	ks, err := bootKernels(w, seed, s1.tenants)
	if err != nil {
		return fmt.Errorf("kernel rung set-up: %w", err)
	}
	mcs, err := bootKernels(w, seed, s1.tenants)
	if err != nil {
		return fmt.Errorf("memctrl rung set-up: %w", err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	all := make([]int, nTenants)
	for i := range all {
		all[i] = i
	}
	stream := newOpStream(w, seed, ladderStream, all)
	wbuf := make([]byte, w.opSize)
	want := make([]byte, w.opSize)
	pads := newPadRung(w)
	lp := &phaseResult{}
	var handler rungTimes
	rungs := [5]struct {
		cat string
		t   rungTimes
		run func(op) (time.Time, time.Duration, bool)
	}{
		{cat: "rung1.fsclient", run: func(op op) (time.Time, time.Duration, bool) {
			c := s1.clients[op.tenant]
			start := time.Now()
			lat, ok := callOp(c, m1, op, wbuf, want, lp)
			if s, found := hs.take(c.LastRequestID); found && ok {
				handler.note(op.write, s[1].Sub(s[0]))
				sl.add("handler", "rung1.server", s[0], s[1].Sub(s[0]), 10, c.LastRequestID)
			}
			return start, lat, ok
		}},
		{cat: "rung2.server", run: func(op op) (time.Time, time.Duration, bool) {
			return serviceOp(s2.svc, sess[op.tenant], m2, op, wbuf, want, res)
		}},
		{cat: "rung3.kernel", run: func(op op) (time.Time, time.Duration, bool) { return ks.kernelOp(op, res) }},
		{cat: "rung4.memctrl", run: func(op op) (time.Time, time.Duration, bool) { return mcs.memctrlOp(op, res) }},
		{cat: "rung5.aesctr", run: pads.padOp},
	}
	var ms runtime.MemStats
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		op := stream.next()
		res.Attempted += len(rungs) - 1 // the pad rung cannot fail
		for i := range rungs {
			r := &rungs[i]
			// The heap allocations of the whole process during the call,
			// the server's goroutines included.
			runtime.ReadMemStats(&ms)
			mallocs, allocBytes := ms.Mallocs, ms.TotalAlloc
			start, lat, ok := r.run(op)
			runtime.ReadMemStats(&ms)
			r.t.allocs += ms.Mallocs - mallocs
			r.t.bytes += ms.TotalAlloc - allocBytes
			if ok {
				r.t.note(op.write, lat)
				sl.add(opName(op), r.cat, start, lat, 10+i, "")
			}
		}
	}
	res.Failed += lp.failed
	lp.report(res, "ladder rung 1: ")
	if lp.mismatches > 0 {
		res.problem(true, "ladder rung 1: %d reads returned content other than the last write", lp.mismatches)
	}
	for i, s := range []*fileEnv{s1, s2} {
		if err := s.svc.VerifyAudit(); err != nil {
			res.problem(true, "audit chain of ladder service %d: %v", i+1, err)
		}
	}
	ks.check("kernel rung", res)
	mcs.check("memctrl rung", res)
	if n := ks.fallbacks + mcs.fallbacks; n > 0 {
		fmt.Printf("  note: the snapshot path declined %d ladder reads; they ran on the live path\n", n)
	}

	names := []string{"fsclient.call", "server.service", "kernel.syscall", "memctrl.op", "aesctr.pad"}
	mean := func(i int, wr bool) float64 { return rungs[i].t.meanUs(wr) }
	for k, kind := range []string{"read", "write"} {
		wr := k == 1
		for i, name := range names {
			res.add(name+"_us."+kind, mean(i, wr), "us", rungs[i].t.n[k])
			if i == 0 {
				res.add("server.handler_us."+kind, handler.meanUs(wr), "us", handler.n[k])
			}
		}
		n := rungs[0].t.n[k]
		res.add("fsclient.transport_us."+kind, mean(0, wr)-handler.meanUs(wr), "us", n)
		res.add("fsproto.codec_us."+kind, handler.meanUs(wr)-mean(1, wr), "us", n)
		res.add("server.self_us."+kind, mean(1, wr)-mean(2, wr), "us", n)
		res.add("kernel.self_us."+kind, mean(2, wr)-mean(3, wr), "us", n)
		res.add("memctrl.self_us."+kind, mean(3, wr)-mean(4, wr), "us", n)
	}
	for i, name := range names {
		t := &rungs[i].t
		n := t.n[0] + t.n[1]
		res.add(name+".allocs_per_op", ratio(float64(t.allocs), float64(n)), "count", n)
		res.add(name+".bytes_per_op", ratio(float64(t.bytes), float64(n)), "B", n)
	}
	return nil
}

func opName(o op) string {
	if o.write {
		return "write"
	}
	return "read"
}

// serviceSessions logs every tenant in to the service directly, for the
// service rung.
func serviceSessions(env *fileEnv) ([]*server.Session, error) {
	sess := make([]*server.Session, len(env.tenants))
	for i, name := range env.tenants {
		s, err := env.svc.Login(context.Background(), name, 1000, passphrase(name), 0)
		if err != nil {
			return nil, fmt.Errorf("service rung login %s: %w", name, err)
		}
		sess[i] = s
	}
	return sess, nil
}

// serviceOp performs op through a direct Service call, checking a read
// against the model.
func serviceOp(svc *server.Service, sess *server.Session, m *model, op op, wbuf, want []byte, res *result) (time.Time, time.Duration, bool) {
	ctx := context.Background()
	off := uint64(op.chunk * m.w.opSize)
	var err error
	var start time.Time
	var lat time.Duration
	if op.write {
		m.nextWrite(wbuf, op)
		start = time.Now()
		err = svc.Write(ctx, sess, fsproto.WriteRequest{Name: fileName(op.file), Offset: off, Data: wbuf})
		lat = time.Since(start)
		m.wrote(op, err == nil)
	} else {
		var pl server.Payload
		start = time.Now()
		pl, err = svc.Read(ctx, sess, fsproto.ReadRequest{Name: fileName(op.file), Offset: off, Length: m.w.opSize})
		lat = time.Since(start)
		if err == nil {
			if m.expect(want, op) && !bytes.Equal(pl.Data, want) {
				res.problem(true, "service rung: read t%d/%s@%d returned content other than the last write", op.tenant, fileName(op.file), off)
			}
			pl.Release()
		}
	}
	if err != nil {
		res.Failed++
		res.problem(false, "service rung: %s t%d/%s@%d: %v", opName(op), op.tenant, fileName(op.file), off, err)
		return start, lat, false
	}
	return start, lat, true
}

// kernels is one set of kernel.Boot systems, one per shard and
// configured like a shard, holding the same tenants' files.
type kernels struct {
	m     *model
	sys   [nShards]*kernel.System
	aud   [nShards]*audit.Log
	sr    [nShards]*kernel.SnapshotReader // kernel-level read context
	rd    [nShards]*memctrl.Reader        // controller-level read context
	procs []*kernel.Process               // per tenant
	files [][]*fs.File                    // [tenant][file]
	vas   [][]addr.Virt
	shard []int
	names []string              // tenant names
	now   [nShards]config.Cycle // the controller-level calls' clock
	buf   []byte
	want  []byte
	page  aesctr.Page
	delta memctrl.ReadDelta
	// fallbacks counts the reads the snapshot path declined, which then
	// ran on the live path as the service's worker would run them.
	fallbacks int
}

func bootKernels(w *fileWorkload, seed uint64, tenants []string) (*kernels, error) {
	scheme := core.SchemeFsEncr
	k := &kernels{m: newModel(w, seed)}
	for i := range k.sys {
		sys := kernel.Boot(config.Default(), scheme.MCMode(), scheme.AccessMode())
		sys.Instrument(telemetry.New())
		sys.AttachJournal(journal.New(journal.DefaultCapacity))
		k.aud[i] = sys.EnableAudit(0)
		k.sys[i] = sys
		k.sr[i] = sys.NewSnapshotReader()
		k.rd[i] = sys.M.MC.NewReader()
	}
	for t, name := range tenants {
		sh := fsproto.ShardIndex(fsproto.TenantGID(name), nShards)
		sys := k.sys[sh]
		uid := fsproto.UserUID(name, 1000)
		p := sys.NewProcess(uid, fsproto.TenantGID(name))
		sys.Keyring.Login(uid, passphrase(name))
		k.procs = append(k.procs, p)
		k.shard = append(k.shard, sh)
		k.names = append(k.names, name)
		var files []*fs.File
		var vas []addr.Virt
		for f := 0; f < filesPerTenant; f++ {
			full := name + "/" + fileName(f)
			file, err := sys.CreateFile(p, full, 0o600, uint64(w.fileSize), true, passphrase(name))
			if err != nil {
				return nil, err
			}
			va, err := p.Mmap(file, file.Size)
			if err != nil {
				return nil, err
			}
			err = k.m.fillFile(t, f, func(off int, data []byte) error {
				if err := p.Write(va+addr.Virt(off), data); err != nil {
					return err
				}
				return p.Persist(va+addr.Virt(off), uint64(len(data)))
			})
			if err != nil {
				return nil, err
			}
			files = append(files, file)
			vas = append(vas, va)
		}
		k.files = append(k.files, files)
		k.vas = append(k.vas, vas)
	}
	for i, sys := range k.sys {
		k.now[i] = sys.M.MaxCoreTime()
	}
	k.buf = make([]byte, w.opSize)
	k.want = make([]byte, w.opSize)
	return k, nil
}

// kernelOp performs op as the service runs it: a read through the
// snapshot fast path (kernel.System.SnapshotRead), falling back to
// OpenFile + Process.Read where that path declines, as the service's worker
// does; a write as the worker runs it, OpenFile (permission and file-key
// check) then Write + Persist. A snapshot read's deferred side effects are
// applied after it, outside the timed span, as the service's worker
// applies them between operations.
func (k *kernels) kernelOp(op op, res *result) (time.Time, time.Duration, bool) {
	p := k.procs[op.tenant]
	sh := k.shard[op.tenant]
	sys := k.sys[sh]
	tenant := k.names[op.tenant]
	name := tenant + "/" + fileName(op.file)
	off := op.chunk * k.m.w.opSize
	va := k.vas[op.tenant][op.file] + addr.Virt(off)
	var err error
	var start time.Time
	if op.write {
		k.m.nextWrite(k.buf, op)
		start = time.Now()
		_, err = sys.OpenFile(p, name, fs.WriteAccess, passphrase(tenant))
		if err == nil {
			err = p.Write(va, k.buf)
		}
		if err == nil {
			err = p.Persist(va, uint64(len(k.buf)))
		}
	} else {
		start = time.Now()
		if !sys.SnapshotRead(k.sr[sh], p.UID, p.GID, name, passphrase(tenant), uint64(off), k.buf, &k.delta) {
			k.fallbacks++
			_, err = sys.OpenFile(p, name, fs.ReadAccess, passphrase(tenant))
			if err == nil {
				err = p.Read(va, k.buf)
			}
		}
	}
	lat := time.Since(start)
	sys.M.MC.ApplyReadDelta(sys.M.MaxCoreTime(), &k.delta)
	k.delta.Reset()
	if op.write {
		k.m.wrote(op, err == nil)
	}
	if err != nil {
		res.Failed++
		res.problem(false, "kernel rung: %s %s: %v", opName(op), name, err)
		return start, lat, false
	}
	if !op.write && k.m.expect(k.want, op) && !bytes.Equal(k.buf, k.want) {
		res.problem(true, "kernel rung: read %s chunk %d returned content other than the last write", name, op.chunk)
	}
	return start, lat, true
}

// memctrlOp performs op on the memory controllers with the calls rung 3's
// syscalls make: a read decrypts every page its range covers through the
// snapshot path (Controller.SnapshotReadPage, whole pages straight into
// the caller's buffer, falling back to ReadPageInto where it declines); a
// write stores whole pages with WritePage and partial pages line by line
// with WriteLine.
func (k *kernels) memctrlOp(op op, res *result) (time.Time, time.Duration, bool) {
	sh := k.shard[op.tenant]
	mc := k.sys[sh].M.MC
	f := k.files[op.tenant][op.file]
	off := op.chunk * k.m.w.opSize
	buf := k.buf
	if op.write {
		k.m.nextWrite(buf, op)
	}
	start := time.Now()
	var err error
	for done := 0; done < len(buf) && err == nil; {
		cur := off + done
		var pa addr.Phys
		pa, err = f.PagePA(cur / config.PageSize)
		if err != nil {
			break
		}
		pa = pa.WithDF()
		in := cur % config.PageSize
		n := min(config.PageSize-in, len(buf)-done)
		dst := &k.page
		if n == config.PageSize {
			dst = (*aesctr.Page)(buf[done : done+n])
		}
		switch {
		case !op.write:
			if !mc.SnapshotReadPage(k.rd[sh], pa, dst, &k.delta) {
				k.fallbacks++
				k.now[sh] = mc.ReadPageInto(k.now[sh], pa, dst)
			}
			if dst == &k.page {
				copy(buf[done:done+n], k.page[in:in+n])
			}
		case n == config.PageSize:
			k.now[sh] = mc.WritePage(k.now[sh], pa, dst)
		default:
			for l := 0; l < n; l += config.LineSize {
				k.now[sh] = mc.WriteLine(k.now[sh], pa+addr.Phys(in+l), aesctr.Line(buf[done+l:done+l+config.LineSize]))
			}
		}
		done += n
	}
	lat := time.Since(start)
	mc.ApplyReadDelta(k.now[sh], &k.delta)
	k.delta.Reset()
	if op.write {
		k.m.wrote(op, err == nil)
	}
	if err != nil {
		res.Failed++
		res.problem(false, "memctrl rung: %v", err)
		return start, lat, false
	}
	if !op.write && k.m.expect(k.want, op) && !bytes.Equal(buf, k.want) {
		res.problem(true, "memctrl rung: page read of t%d/%s chunk %d returned content other than the last write", op.tenant, fileName(op.file), op.chunk)
	}
	return start, lat, true
}

// check records a failed check of the set's integrity: an integrity
// violation seen by a controller, or a broken audit chain.
func (k *kernels) check(rung string, res *result) {
	for i, sys := range k.sys {
		if v := sys.M.MC.IntegrityViolations(); v != 0 {
			res.problem(true, "%s: %d integrity violations on system %d", rung, v, i)
		}
		if err := k.aud[i].Verify(); err != nil {
			res.problem(true, "%s: audit chain of system %d: %v", rung, i, err)
		}
	}
}

// padRung generates the pads rung 4 needs: a memory pad and a file pad
// per page read or written whole, and per line written alone, each XORed
// over the data.
type padRung struct {
	w       *fileWorkload
	memEng  *aesctr.Engine
	fileEng *aesctr.Engine
	pad     aesctr.Page
	data    aesctr.Page
	minors  [config.LinesPerPage]uint8
	lpad    aesctr.Line
	line    aesctr.Line
}

func newPadRung(w *fileWorkload) *padRung {
	return &padRung{w: w, memEng: aesctr.New(aesctr.Key{1}, 0), fileEng: aesctr.New(aesctr.Key{2}, 0)}
}

func (r *padRung) padOp(op op) (time.Time, time.Duration, bool) {
	off := op.chunk * r.w.opSize
	start := time.Now()
	for done := 0; done < r.w.opSize; {
		cur := off + done
		pageID := uint64(op.tenant*filesPerTenant+op.file)<<20 | uint64(cur/config.PageSize)
		in := cur % config.PageSize
		n := min(config.PageSize-in, r.w.opSize-done)
		if !op.write || n == config.PageSize {
			r.memEng.OTPPageInto(&r.pad, pageID, 1, &r.minors, aesctr.DomainMemory)
			aesctr.XORPageInto(&r.data, &r.pad)
			r.fileEng.OTPPageInto(&r.pad, pageID, 1, &r.minors, aesctr.DomainFile)
			aesctr.XORPageInto(&r.data, &r.pad)
		} else {
			for l := 0; l < n; l += config.LineSize {
				iv := aesctr.IV{PageID: pageID, LineInPage: uint8((in + l) / config.LineSize), Major: 1, Minor: 1, Domain: aesctr.DomainMemory}
				r.memEng.OTPInto(&r.lpad, iv)
				aesctr.XORInto(&r.line, &r.lpad)
				iv.Domain = aesctr.DomainFile
				r.fileEng.OTPInto(&r.lpad, iv)
				aesctr.XORInto(&r.line, &r.lpad)
			}
		}
		done += n
	}
	return start, time.Since(start), true
}
