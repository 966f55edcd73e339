package main

// The sim-pmemkv workload: the paper's Figure 8–10 sweep, the ten PMEMKV
// workloads under baseline security and under FsEncr at their bench op
// counts, run through core.Run one at a time. This is how the
// reproduction's users use the repository. It has no HTTP and no server:
// it runs kvstore/pmem over the line-granular memctrl path (the -s values)
// and the page path (the -l values), so a memctrl change that helps the
// service but slows the simulator shows here. Its simulated results are
// deterministic, which gives an exact check that a host-only change left
// the model alone.

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"fsencr/internal/config"
	"fsencr/internal/core"
	"fsencr/internal/kernel"
	"fsencr/internal/runner"
	"fsencr/internal/workloads"
)

const (
	// simWorkers is how many simulations run at once. One: two
	// simulations at once on a 2-vCPU host contend with each other and
	// with the collector, and a request's host time then depends on what
	// ran beside it.
	simWorkers = 1
	// simSetups is how many times setup_s times the set-up phase.
	simSetups = 7
	// sweepSeconds sets how many sweeps a run makes: --seconds/sweepSeconds,
	// rounded, and at least one. A sweep takes 17 to 25 s on the 2-vCPU
	// host the workload was sized on, depending on its load, so a 30 s run
	// makes one.
	sweepSeconds = 25
	// setupWorkload is the workload whose set-up setup_s times: boot plus
	// a 2 × 6000-key preload, the set-up a Figure 8 read run pays.
	setupWorkload = "readrandom-s"
	// repeatWorkload is re-run once after the sweep to check that a
	// simulation repeats exactly.
	repeatWorkload = "fillseq-s"
)

var simSchemes = []core.Scheme{core.SchemeBaseline, core.SchemeFsEncr}

// simJob is one core.Run of the sweep.
type simJob struct {
	req   core.Request
	ops   int // simulated ops: timed ops per thread × threads
	start time.Duration
	dur   time.Duration
	res   core.Result
	err   error
}

func (j *simJob) label() string { return j.req.Workload + "/" + j.req.Scheme.String() }

// isRead reports whether a PMEMKV workload only reads in its timed phase.
func isRead(workload string) bool { return strings.HasPrefix(workload, "read") }

func newSimJob(name string, s core.Scheme, seed uint64) (*simJob, error) {
	w, err := workloads.Lookup(name)
	if err != nil {
		return nil, err
	}
	return &simJob{
		req: core.Request{Workload: name, Scheme: s, Ops: w.BenchOps, Seed: seed},
		ops: w.BenchOps * w.Threads,
	}, nil
}

// simRequests lays out one sweep in core.RunGroup's order.
func simRequests(seed uint64) ([]*simJob, error) {
	var jobs []*simJob
	for _, name := range core.PMEMKVWorkloads {
		for _, s := range simSchemes {
			j, err := newSimJob(name, s, seed)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}

// runSweep runs jobs in list order on simWorkers workers, recording each
// job's result, error and host time. A panicking simulation is reported as
// that job's error. Each simulation starts on a collected heap, so neither
// its host time nor its heap peak carries the garbage of the one before.
func runSweep(jobs []*simJob, t0 time.Time) {
	results, err := runner.Map(simWorkers, jobs, func(_ int, j *simJob) (core.Result, error) {
		runtime.GC()
		start := time.Now()
		defer func() { j.start, j.dur = start.Sub(t0), time.Since(start) }()
		return core.Run(j.req)
	})
	for i, r := range results {
		jobs[i].res = r
	}
	var be *runner.BatchError
	if errors.As(err, &be) {
		for _, it := range be.Items {
			jobs[it.Index].err = it.Err
		}
	}
}

// sameCounts reports whether two results of one request agree on every
// simulated count.
func sameCounts(a, b core.Result) bool {
	return a.Cycles == b.Cycles && a.NVMReads == b.NVMReads && a.NVMWrites == b.NVMWrites &&
		a.MetaReads == b.MetaReads && a.MetaWritebacks == b.MetaWritebacks &&
		a.MetaHits == b.MetaHits && a.MetaMisses == b.MetaMisses && a.Faults == b.Faults &&
		a.ReadLatMean == b.ReadLatMean && a.ReadLatMax == b.ReadLatMax
}

// simSetupSeconds times boot plus the untimed set-up phase of
// setupWorkload under FsEncr: the work core.Run does before its first
// timed operation.
func simSetupSeconds(seed uint64) (float64, error) {
	w, err := workloads.Lookup(setupWorkload)
	if err != nil {
		return 0, err
	}
	s := core.SchemeFsEncr
	start := time.Now()
	sys := kernel.Boot(config.Default(), s.MCMode(), s.AccessMode())
	env := workloads.NewEnv(sys, w.Threads, w.BenchOps, s.FilesEncrypted(), seed)
	if err := w.Setup(env); err != nil {
		return 0, fmt.Errorf("%s set-up: %w", setupWorkload, err)
	}
	return time.Since(start).Seconds(), nil
}

func runSim(o options) (*result, error) {
	res := &result{Correct: true}
	var setupS []float64
	for i := 0; i < simSetups; i++ {
		s, err := simSetupSeconds(o.seed)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, s)
	}
	runtime.GC()

	// Whole sweeps, a number fixed by --seconds: a partial sweep would
	// weight the metrics toward the workloads that happen to come first,
	// and a number that depended on how fast the host ran would change
	// what a metric summarizes from run to run.
	sweeps := max(1, int(o.seconds/sweepSeconds+0.5))
	t0 := time.Now()
	hs := startHeapSampler(t0)
	var msA, msB runtime.MemStats
	runtime.ReadMemStats(&msA)
	var jobs []*simJob
	for i := 0; i < sweeps; i++ {
		batch, err := simRequests(o.seed)
		if err != nil {
			return nil, err
		}
		runSweep(batch, t0)
		jobs = append(jobs, batch...)
	}
	runtime.ReadMemStats(&msB)
	hs.end()

	// Repeat one request alone: its counts must match the sweep's.
	repeat, err := newSimJob(repeatWorkload, core.SchemeFsEncr, o.seed)
	if err != nil {
		return nil, err
	}
	runSweep([]*simJob{repeat}, t0)

	// Per request: the first result is the reference every repeat must
	// match, and the host time and heap peak are medians over the sweeps.
	type perReq struct {
		first *simJob
		secs  []float64
		memMB []float64
		err   error
	}
	byLabel := make(map[string]*perReq)
	var labels []string
	for _, j := range append(jobs, repeat) {
		pr := byLabel[j.label()]
		if pr == nil {
			pr = &perReq{}
			byLabel[j.label()] = pr
			labels = append(labels, j.label())
		}
		switch {
		case j.err != nil:
			pr.err = j.err
		case pr.first == nil:
			pr.first = j
		case !sameCounts(pr.first.res, j.res):
			res.problem(true, "%s: a repeat of the same seed gave different simulated counts", j.label())
		}
		if j.err == nil && j != repeat {
			pr.secs = append(pr.secs, j.dur.Seconds())
			pr.memMB = append(pr.memMB, hs.peakMB(j.start, j.start+j.dur))
		}
	}
	// A request is one (workload, scheme) simulation of the sweep; it
	// failed if any of its runs failed. An integrity violation is wrong
	// output, not just a failed run.
	res.Attempted = len(labels)
	for _, l := range labels {
		if err := byLabel[l].err; err != nil {
			res.Failed++
			res.problem(strings.Contains(err.Error(), "integrity violation"), "%s: %v", l, err)
		}
	}

	// ops_s is the sweep's simulated ops over its host seconds, each
	// request's time being its median over the sweeps: the time the
	// simulations themselves took, without the gaps between them.
	var simOps, sweepOps int
	var sweepSecs float64
	var perRun, memMB []float64
	var readCost, writeCost []opCost
	var spans []span
	for _, j := range jobs {
		spans = append(spans, span{Name: j.label(), Cat: "core.Run", Start: j.start, Dur: j.dur, Tid: 0})
		if j.err != nil {
			continue
		}
		simOps += j.ops
	}
	for _, l := range labels {
		pr := byLabel[l]
		if pr.first == nil {
			continue
		}
		secs := median(pr.secs)
		sweepOps += pr.first.ops
		sweepSecs += secs
		perRun = append(perRun, float64(pr.first.ops)/secs)
		memMB = append(memMB, median(pr.memMB))
		c := opCost{us: secs * 1e6 / float64(pr.first.ops), ops: pr.first.ops}
		if isRead(pr.first.req.Workload) {
			readCost = append(readCost, c)
		} else {
			writeCost = append(writeCost, c)
		}
	}

	if !o.trace {
		res.add("setup_s", median(setupS), "s", len(setupS))
		res.add("ops_s", float64(sweepOps)/sweepSecs, "1/s", simOps)
		addSimLatency(res, "read", readCost)
		addSimLatency(res, "write", writeCost)
		res.add("sim_ops_s", geomean(perRun), "1/s", len(perRun))
		// mem_mb is a simulation's peak heap in use, geometric mean over
		// the simulations: the largest single peak moves with where the
		// collector's cycles fall and read 85 to 109 MB on repeats of one
		// seed.
		res.add("mem_mb", geomean(memMB), "MB", len(memMB))
		return res, nil
	}

	res.Trace = spans
	res.add("trace.ops_s", float64(sweepOps)/sweepSecs, "1/s", simOps)
	res.add("error_rate", ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Attempted)
	// Counts are over one result per completed request (repeats are
	// identical), divided by those results' simulated ops.
	var hostNs, nvm, hits, probes, reads, writes, faults, n float64
	for _, l := range labels {
		pr := byLabel[l]
		name := strings.Replace(l, "/", ".", 1)
		var runS, cyc float64
		if pr.first != nil {
			r := pr.first.res
			runS, cyc = median(pr.secs), r.CyclesPerOp()
			hostNs += runS * 1e9
			nvm += float64(r.NVMReads + r.NVMWrites)
			hits += float64(r.MetaHits)
			probes += float64(r.MetaHits + r.MetaMisses)
			reads += float64(r.NVMReads)
			writes += float64(r.NVMWrites)
			faults += float64(r.Faults)
			n += float64(pr.first.ops)
		}
		res.add("core.run_s."+name, runS, "s", len(pr.secs))
		res.add("sim.cycles_per_op."+name, cyc, "cycles", len(pr.secs))
	}
	res.add("core.host_ns_per_nvm_access", ratio(hostNs, nvm), "ns", int(nvm))
	for _, w := range core.PMEMKVWorkloads {
		b, f := byLabel[w+"/"+core.SchemeBaseline.String()], byLabel[w+"/"+core.SchemeFsEncr.String()]
		var slow float64
		if b.first != nil && f.first != nil {
			slow = ratio(f.first.res.CyclesPerOp(), b.first.res.CyclesPerOp())
		}
		res.add("sim.slowdown."+w, slow, "ratio", 2)
	}
	res.add("memctrl.meta_hit_ratio", ratio(hits, probes), "ratio", int(probes))
	res.add("pcm.reads_per_op", ratio(reads, n), "count", int(n))
	res.add("pcm.writes_per_op", ratio(writes, n), "count", int(n))
	res.add("kernel.faults_per_op", ratio(faults, n), "count", int(n))
	gcMetrics(res, &msA, &msB, simOps)
	return res, nil
}

// opCost is one completed request's host time per simulated op (its
// median over the sweeps) and its simulated op count.
type opCost struct {
	us  float64
	ops int
}

// addSimLatency adds the p50 and p99 latency of one op kind. No simulated
// operation is timed on the host alone: each simulated op of a read-only
// (respectively writing) request is charged its request's host µs per op.
// The costs cluster by value size (-l ops cost about 20 times -s ops), so
// an order statistic in the middle lands on a cluster edge and jumps
// between requests from run to run; p50 is therefore the centre on a log
// scale, the geometric mean over the requests. p99 is the cost that 99% of
// the ops stay within, the slowest request's. A failed simulation has no
// per-op time; it counts in failed.
func addSimLatency(r *result, kind string, costs []opCost) {
	sort.Slice(costs, func(i, j int) bool { return costs[i].us < costs[j].us })
	total := 0
	var us []float64
	for _, c := range costs {
		total += c.ops
		us = append(us, c.us)
	}
	p99, seen := 0.0, 0
	for _, c := range costs {
		seen += c.ops
		p99 = c.us
		if float64(seen) >= 0.99*float64(total) {
			break
		}
	}
	r.add(kind+"_p50_us", geomean(us), "us", total)
	r.add(kind+"_p99_us", p99, "us", total)
}
