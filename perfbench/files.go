package main

// The file-small and file-large workloads: fsencrd's encrypted file service
// driven in-process (server.New behind an http.Server on a loopback
// listener) by closed-loop fsclient callers.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"fsencr/internal/core"
	"fsencr/internal/fsclient"
	"fsencr/internal/fsproto"
	"fsencr/internal/server"
)

// fileWorkload is one service traffic mix. Both mixes run the fsencr
// scheme on 2 shards in fair admission mode with 8 tenant sessions, 4 to a
// shard, and 4 encrypted files per tenant, driven by closed-loop callers
// that split the tenants between them. Operations cover one chunk of
// opSize bytes at a seeded, chunk-aligned offset.
type fileWorkload struct {
	name     string
	fileSize int
	opSize   int
	// readsPerWrite is the read:write mix (3 means 3 reads to 1 write).
	readsPerWrite int
	// callers is the number of closed-loop callers.
	callers int
	// setups is how many times a --trace 0 run sets the service up;
	// setup_s is their median.
	setups int
}

var (
	// fileSmall: 256 B operations, 3 reads to 1 write, over 8 tenants × 4
	// files × 16 KiB = 512 KiB, which fits the simulated L3 and metadata
	// cache (metadata hit ratio about 0.995). Per-request cost dominates:
	// only about a fifth of the CPU is spent inside Service calls, the rest
	// in HTTP, JSON, the client and the runtime. This workload shows changes
	// to fsclient, fsproto, server admission and the fast-read path, and it
	// skips the metadata-miss path.
	//
	// It runs one caller. With two, 256 B operations keep both vCPUs of
	// the 2-vCPU host busy, and the p99 then measures how the host
	// schedules the process: over ten runs its quartiles spread 0.26 to
	// 0.29 of the median. With one caller, which leaves a vCPU to the
	// server's goroutines and the loopback stack, sets of ten runs spread
	// 0.13 to 0.24, about as much as ops_s drifted with the host's speed
	// over the same runs.
	fileSmall = fileWorkload{name: "file-small", fileSize: 16 << 10, opSize: 256, readsPerWrite: 3, callers: 1, setups: 7}
	// fileLarge: 64 KiB operations, 1 read to 1 write, over 8 tenants × 4
	// files × 2 MiB, so each shard holds 32 MiB while its 512 KiB metadata
	// cache covers only 16 MiB of file pages (hit ratio about 0.37). Page
	// crypt, Merkle, PCM timing and JSON/base64 body coding dominate, so this
	// workload shows aesctr, memctrl and merkle changes and barely touches
	// per-request fixed cost. Writes run beside reads, so a gain on one path
	// that costs the other shows. Two callers, one per vCPU, each drive 4
	// tenants.
	fileLarge = fileWorkload{name: "file-large", fileSize: 2 << 20, opSize: 64 << 10, readsPerWrite: 1, callers: 2, setups: 3}
)

const (
	nShards        = 2
	nTenants       = 8
	filesPerTenant = 4
	// fillBytes is the write size of the untimed file fill: large enough to
	// amortize request overhead, small enough that its JSON body stays under
	// the service's 1 MiB request bound.
	fillBytes = 512 << 10
)

func (w *fileWorkload) chunks() int { return w.fileSize / w.opSize }

// tenantNames picks 8 tenant names that the service places 4 to a shard,
// so both shards carry the same data and load. Names alternate between the
// shards, so any caller's contiguous share of them is balanced too.
func tenantNames() []string {
	var perShard [nShards][]string
	for i := 0; len(perShard[0]) < nTenants/nShards || len(perShard[1]) < nTenants/nShards; i++ {
		name := fmt.Sprintf("tenant%02d", i)
		s := fsproto.ShardIndex(fsproto.TenantGID(name), nShards)
		if len(perShard[s]) < nTenants/nShards {
			perShard[s] = append(perShard[s], name)
		}
	}
	var out []string
	for i := 0; i < nTenants/nShards; i++ {
		for s := 0; s < nShards; s++ {
			out = append(out, perShard[s][i])
		}
	}
	return out
}

func passphrase(tenant string) string { return "pass-" + tenant }
func fileName(f int) string           { return fmt.Sprintf("data%d", f) }

// op is one generated file operation.
type op struct {
	tenant int // global tenant index
	file   int
	chunk  int
	write  bool
}

// opStream yields a caller's seeded operations: the i-th operation of a
// (seed, stream) pair is the same on every run.
type opStream struct {
	w       *fileWorkload
	rng     *rand.Rand
	tenants []int
}

func newOpStream(w *fileWorkload, seed, stream uint64, tenants []int) *opStream {
	return &opStream{w: w, rng: rand.New(rand.NewPCG(seed, stream)), tenants: tenants}
}

func (s *opStream) next() op {
	return op{
		tenant: s.tenants[s.rng.IntN(len(s.tenants))],
		file:   s.rng.IntN(filesPerTenant),
		chunk:  s.rng.IntN(s.w.chunks()),
		write:  s.rng.IntN(s.w.readsPerWrite+1) == 0,
	}
}

// model is the content the harness expects in every chunk of every file.
// Each write bumps the chunk's version, and a chunk's bytes are a function
// of (seed, tenant, file, chunk, version), so a lost, stale or misplaced
// write shows as a mismatch on the next read. Callers own disjoint
// tenants, so concurrent callers touch disjoint versions.
type model struct {
	w    *fileWorkload
	seed uint64
	ver  [][]uint32 // [tenant*filesPerTenant+file][chunk]
	// unknown marks the chunks whose last write failed. The write may
	// still have been applied (a transport error can follow it), so reads
	// of such a chunk go unchecked until its next successful write.
	unknown [][]bool
}

func newModel(w *fileWorkload, seed uint64) *model {
	m := &model{w: w, seed: seed, ver: make([][]uint32, nTenants*filesPerTenant), unknown: make([][]bool, nTenants*filesPerTenant)}
	for i := range m.ver {
		m.ver[i] = make([]uint32, w.chunks())
		m.unknown[i] = make([]bool, w.chunks())
	}
	return m
}

// content writes the opSize bytes of (tenant, file, chunk) at version v.
func (m *model) content(dst []byte, tenant, file, chunk int, v uint32) {
	s := m.seed*0x9e3779b97f4a7c15 ^ uint64(tenant)<<56 ^ uint64(file)<<48 ^ uint64(chunk)<<24 ^ uint64(v)
	s ^= s >> 31
	s *= 0xbf58476d1ce4e5b9
	s ^= s >> 29
	for i := 0; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], s+uint64(i)*0x94d049bb133111eb)
	}
}

func (m *model) version(o op) *uint32 { return &m.ver[o.tenant*filesPerTenant+o.file][o.chunk] }

// expect fills dst with the bytes a read of o must return. It returns
// false, leaving dst alone, when the chunk's content is unknown.
func (m *model) expect(dst []byte, o op) bool {
	if m.unknown[o.tenant*filesPerTenant+o.file][o.chunk] {
		return false
	}
	m.content(dst, o.tenant, o.file, o.chunk, *m.version(o))
	return true
}

// nextWrite bumps o's chunk version and fills dst with the new bytes.
// wrote must follow with the write's outcome.
func (m *model) nextWrite(dst []byte, o op) {
	v := m.version(o)
	*v++
	m.content(dst, o.tenant, o.file, o.chunk, *v)
}

// wrote records whether the write of o's chunk succeeded.
func (m *model) wrote(o op, ok bool) { m.unknown[o.tenant*filesPerTenant+o.file][o.chunk] = !ok }

// fillFile writes version 0 of every chunk of (tenant, file) through put,
// fillBytes at a time.
func (m *model) fillFile(tenant, file int, put func(off int, data []byte) error) error {
	buf := make([]byte, min(fillBytes, m.w.fileSize))
	for off := 0; off < m.w.fileSize; off += len(buf) {
		for c := 0; c < len(buf)/m.w.opSize; c++ {
			m.content(buf[c*m.w.opSize:(c+1)*m.w.opSize], tenant, file, off/m.w.opSize+c, 0)
		}
		if err := put(off, buf); err != nil {
			return err
		}
	}
	return nil
}

// fileEnv is one booted service with its listener and tenant clients.
type fileEnv struct {
	svc     *server.Service
	srv     *http.Server
	served  chan error
	tenants []string
	clients []*fsclient.Client // one session per tenant
}

// bootFiles boots the service, serves wrap(svc.Mux()) on a loopback port,
// opens the 8 tenant sessions, creates every file and fills it with
// version 0 of the model, all through the fsclient API a user would call.
func bootFiles(w *fileWorkload, m *model, wrap func(http.Handler) http.Handler) (*fileEnv, error) {
	scheme := core.SchemeFsEncr
	svc := server.New(server.Options{Shards: nShards, MCMode: scheme.MCMode(), Access: scheme.AccessMode()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	var h http.Handler = svc.Mux()
	if wrap != nil {
		h = wrap(h)
	}
	e := &fileEnv{svc: svc, srv: &http.Server{Handler: h}, served: make(chan error, 1), tenants: tenantNames()}
	base := "http://" + ln.Addr().String()
	go func() { e.served <- e.srv.Serve(ln) }()
	for t, name := range e.tenants {
		c := fsclient.Dial(base)
		if err := c.Login(name, 1000, passphrase(name)); err != nil {
			e.close()
			return nil, fmt.Errorf("login %s: %w", name, err)
		}
		e.clients = append(e.clients, c)
		for f := 0; f < filesPerTenant; f++ {
			err := c.Create(fsproto.CreateRequest{Name: fileName(f), Perm: 0o600, Size: uint64(w.fileSize), Encrypted: true})
			if err == nil {
				err = m.fillFile(t, f, func(off int, data []byte) error {
					return c.Write(fsproto.WriteRequest{Name: fileName(f), Offset: uint64(off), Data: data})
				})
			}
			if err != nil {
				e.close()
				return nil, fmt.Errorf("create %s/%s: %w", name, fileName(f), err)
			}
		}
	}
	return e, nil
}

// close stops the HTTP server, waits for it to return, and drains every
// shard.
func (e *fileEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // a forced close after the timeout is fine: the run is over
	if err := <-e.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("  note: http server: %v\n", err)
	}
	e.svc.Close()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// shardOf is the shard index serving tenant t.
func (e *fileEnv) shardOf(t int) int {
	return fsproto.ShardIndex(fsproto.TenantGID(e.tenants[t]), nShards)
}

// failedNs marks a failed or refused operation in a latency sample list:
// it ranks above every success.
const failedNs = math.MaxInt64

// sample is one operation of a timed phase.
type sample struct {
	end   time.Duration // completion, from the phase start
	ns    int64         // client latency; failedNs for a failure
	write bool
	shard int
}

// phaseResult is what closed-loop callers measured in one timed phase.
type phaseResult struct {
	elapsed    time.Duration
	samples    []sample
	failed     int
	mismatches int
	errs       []string // first few failures, for the report
}

func (p *phaseResult) attempted() int { return len(p.samples) }

func (p *phaseResult) reads() int {
	n := 0
	for _, s := range p.samples {
		if !s.write {
			n++
		}
	}
	return n
}

func (p *phaseResult) merge(o *phaseResult) {
	p.samples = append(p.samples, o.samples...)
	p.failed += o.failed
	p.mismatches += o.mismatches
	for _, e := range o.errs {
		if len(p.errs) < 8 {
			p.errs = append(p.errs, e)
		}
	}
}

// callOp performs one operation through client c, checking a read against
// the model. It returns the client-observed latency and whether the
// operation succeeded with the expected content.
func callOp(c *fsclient.Client, m *model, o op, wbuf, want []byte, pr *phaseResult) (time.Duration, bool) {
	off := uint64(o.chunk * m.w.opSize)
	name := fileName(o.file)
	if o.write {
		m.nextWrite(wbuf, o)
		start := time.Now()
		err := c.Write(fsproto.WriteRequest{Name: name, Offset: off, Data: wbuf})
		d := time.Since(start)
		m.wrote(o, err == nil)
		if err != nil {
			pr.fail(fmt.Sprintf("write t%d/%s@%d: %v", o.tenant, name, off, err))
			return d, false
		}
		return d, true
	}
	start := time.Now()
	got, err := c.Read(fsproto.ReadRequest{Name: name, Offset: off, Length: m.w.opSize})
	d := time.Since(start)
	if err != nil {
		pr.fail(fmt.Sprintf("read t%d/%s@%d: %v", o.tenant, name, off, err))
		return d, false
	}
	if m.expect(want, o) && !bytes.Equal(got, want) {
		pr.mismatches++
		pr.fail(fmt.Sprintf("read t%d/%s@%d: content mismatch at version %d", o.tenant, name, off, *m.version(o)))
		return d, false
	}
	return d, true
}

// report names the phase's failed operations in r: the first few in full,
// then how many there were.
func (p *phaseResult) report(r *result, prefix string) {
	for _, e := range p.errs {
		r.problem(false, "%s%s", prefix, e)
	}
	if p.failed > len(p.errs) {
		r.problem(false, "%s%d operations failed in all", prefix, p.failed)
	}
}

func (p *phaseResult) fail(msg string) {
	p.failed++
	if len(p.errs) < 8 {
		p.errs = append(p.errs, msg)
	}
}

// runCallers runs the closed-loop callers for d. Caller c draws its
// operations from stream c of the seed over its share of the tenants. onOp, when
// set, sees every completed operation with its start time and latency.
func runCallers(e *fileEnv, m *model, seed uint64, d time.Duration, onOp func(caller int, c *fsclient.Client, o op, start time.Time, lat time.Duration)) *phaseResult {
	callers := m.w.callers
	parts := make([]*phaseResult, callers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < callers; c++ {
		tenants := make([]int, nTenants/callers)
		for i := range tenants {
			tenants[i] = c*len(tenants) + i
		}
		pr := &phaseResult{}
		parts[c] = pr
		wg.Add(1)
		go func(c int, s *opStream) {
			defer wg.Done()
			wbuf := make([]byte, m.w.opSize)
			want := make([]byte, m.w.opSize)
			for time.Now().Before(deadline) {
				o := s.next()
				cl := e.clients[o.tenant]
				t0 := time.Now()
				lat, ok := callOp(cl, m, o, wbuf, want, pr)
				ns := int64(lat)
				if !ok {
					ns = failedNs
				}
				pr.samples = append(pr.samples, sample{end: t0.Add(lat).Sub(start), ns: ns, write: o.write, shard: e.shardOf(o.tenant)})
				if onOp != nil {
					onOp(c, cl, o, t0, lat)
				}
			}
		}(c, newOpStream(m.w, seed, uint64(c), tenants))
	}
	wg.Wait()
	out := &phaseResult{elapsed: time.Since(start)}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// heapSampler samples the Go heap in use every heapTick until stopped.
// The peak over any interval depends on where the collector's cycles fall
// in it, so a run reports a summary of the peaks of many intervals (the
// windows of a file workload, the simulations of a sweep) rather than the
// single largest sample.
type heapSampler struct {
	t0    time.Time
	stop  chan struct{}
	done  chan struct{}
	at    []time.Duration // from t0
	bytes []uint64
}

const heapTick = 5 * time.Millisecond

func heapInUse() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startHeapSampler starts sampling; sample times are taken from t0.
func startHeapSampler(t0 time.Time) *heapSampler {
	h := &heapSampler{t0: t0, stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapTick)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	h.at = append(h.at, time.Since(h.t0))
	h.bytes = append(h.bytes, heapInUse())
}

// end stops the sampler and waits for it.
func (h *heapSampler) end() {
	close(h.stop)
	<-h.done
	h.sample()
}

// peakMB returns the largest sample taken in [from, to), in MB (0 for
// none). Call it after end.
func (h *heapSampler) peakMB(from, to time.Duration) float64 {
	var peak uint64
	for i, at := range h.at {
		if at >= from && at < to {
			peak = max(peak, h.bytes[i])
		}
	}
	return float64(peak) / (1 << 20)
}

// minWindowOps is the fewest operations of each kind a window must hold,
// so that its p99 has at least ten samples beyond it.
const minWindowOps = 1000

// phaseMetrics adds the timed phase's throughput, latency and memory
// metrics. The phase is cut into equal windows of about a second each, as
// many as keep minWindowOps reads and writes per window, and each metric
// is the median over windows: a burst of interference from outside the
// benchmark spoils one window, not the run. A failed or refused operation
// ranks above every success; if a percentile lands on one, it reads as the
// phase duration. mem_mb is the peak heap in use of a window, hs sampling
// the heap from the phase start.
func phaseMetrics(r *result, pr *phaseResult, hs *heapSampler, seconds float64) {
	reads := pr.reads()
	n := max(1, min(int(seconds+0.5), reads/minWindowOps, (len(pr.samples)-reads)/minWindowOps))
	wlen := pr.elapsed / time.Duration(n)
	type window struct {
		ok    int
		shard [nShards]int
		lat   [2][]int64 // [read, write]
	}
	ws := make([]window, n)
	for _, s := range pr.samples {
		w := &ws[min(n-1, int(s.end/wlen))]
		k := 0
		if s.write {
			k = 1
		}
		w.lat[k] = append(w.lat[k], s.ns)
		if s.ns != failedNs {
			w.ok++
			w.shard[s.shard]++
		}
	}
	secs := wlen.Seconds()
	var opsS, simS, memMB []float64
	var pct [2][2][]float64 // [kind][p50, p99]
	for i, w := range ws {
		memMB = append(memMB, hs.peakMB(time.Duration(i)*wlen, time.Duration(i+1)*wlen))
		opsS = append(opsS, float64(w.ok)/secs)
		var perShard []float64
		for _, c := range w.shard {
			perShard = append(perShard, float64(c)/secs)
		}
		simS = append(simS, geomean(perShard))
		for k := range w.lat {
			l := w.lat[k]
			sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
			for q, p := range []float64{0.50, 0.99} {
				v := rank(l, p)
				if v == failedNs {
					v = int64(pr.elapsed)
				}
				pct[k][q] = append(pct[k][q], float64(v)/1e3)
			}
		}
	}
	ok := len(pr.samples) - pr.failed
	r.add("ops_s", median(opsS), "1/s", ok)
	for k, kind := range []string{"read", "write"} {
		cnt := reads
		if k == 1 {
			cnt = len(pr.samples) - reads
		}
		r.add(kind+"_p50_us", median(pct[k][0]), "us", cnt)
		r.add(kind+"_p99_us", median(pct[k][1]), "us", cnt)
	}
	// On the file workloads each shard is one simulated machine, so the
	// per-simulation throughput is each shard's completed ops per host
	// second, geometric mean over shards.
	r.add("sim_ops_s", median(simS), "1/s", ok)
	r.add("mem_mb", median(memMB), "MB", n)
}

// runFiles runs one file workload: the end-to-end run, or with o.trace the
// per-layer ladder (ladder.go).
func runFiles(w *fileWorkload, o options) (*result, error) {
	if o.trace {
		return runLadder(w, o)
	}
	res := &result{Correct: true}
	var setupS []float64
	var env *fileEnv
	var m *model
	for i := 0; i < w.setups; i++ {
		// Only the last set-up is kept; earlier ones are torn down. Each
		// starts, as the timed phase does, on a collected heap.
		runtime.GC()
		m = newModel(w, o.seed)
		start := time.Now()
		var err error
		env, err = bootFiles(w, m, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if i < w.setups-1 {
			env.close()
		}
	}
	runtime.GC()
	hs := startHeapSampler(time.Now())
	pr := runCallers(env, m, o.seed, time.Duration(o.seconds*float64(time.Second)), nil)
	hs.end()
	auditErr := env.svc.VerifyAudit()
	env.close()

	res.Attempted, res.Failed = pr.attempted(), pr.failed
	pr.report(res, "")
	if pr.mismatches > 0 {
		res.problem(true, "%d reads returned content other than the last write", pr.mismatches)
	}
	if auditErr != nil {
		res.problem(true, "audit chain: %v", auditErr)
	}
	res.add("setup_s", median(setupS), "s", len(setupS))
	phaseMetrics(res, pr, hs, o.seconds)
	return res, nil
}
