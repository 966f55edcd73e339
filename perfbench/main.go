// Command perfbench is the repository benchmark: the one ruler every
// performance claim in this repository is measured with.
//
// It drives the program only from outside, through the public functions of
// its packages, and checks the program's outputs in every run:
//
//	perfbench --workload file-small|file-large|sim-pmemkv --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it runs
// the per-layer ladder instead (see ladder.go). Every metric is printed by
// name with its unit and sample count, followed by the host facts and, as
// the last line of standard output, one JSON object for scripts:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {"ops_s": {"value": ..., "unit": "1/s"}, ...}}
//
// The exit code is nonzero when a correctness check fails or the workload
// cannot run; a failed operation (an error or a refusal) is counted in
// "failed" instead, so a known defect stays visible without hiding the rest
// of the run.
//
// The workload seed is the only source of randomness in the inputs: the
// same seed replays the same operations. Seed 1 is the working seed; seed
// HeldOutSeed is kept back so a claimed gain can be re-checked on inputs
// nobody tuned against.
//
// Every workload uses closed-loop callers (a caller sends its next request
// only after the previous reply): one on file-small and two on file-large;
// sim-pmemkv runs one simulation at a time. On the 2-vCPU host the
// benchmark was built on, time.Sleep(50µs) overshoots by about 1.0 ms at
// the median and a 400 µs sleep by about 0.7 ms. A file-small operation takes about 0.15 ms, so an
// open loop paced by timers would measure the timer rather than the
// service.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// HeldOutSeed is the seed reserved for held-out checks of a claimed gain.
const HeldOutSeed = 7919

// outDir receives the detailed result and trace files, inside the
// checkout the benchmark runs from.
const outDir = ".bench_build/perfbench"

// metric is one reported number. samples is how many measurements the
// value summarizes (ops for a latency percentile, set-ups for setup_s).
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is one run of one workload.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
	// Problems names every failed operation kind and every failed check,
	// so a failure is never reported as a bare count; unlisted counts
	// those beyond maxProblems.
	Problems []string
	unlisted int
	// Trace holds the benchmark's own spans (traced runs only).
	Trace []span
}

func (r *result) add(name string, value float64, unit string, samples int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unit, Samples: samples})
}

// maxProblems bounds the problems a run lists; the rest are counted.
const maxProblems = 50

// problem records a failed operation or check; check marks it as wrong
// output, which makes the whole run incorrect.
func (r *result) problem(check bool, format string, args ...any) {
	if check {
		r.Correct = false
	}
	if len(r.Problems) < maxProblems {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	} else {
		r.unlisted++
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// runners maps a workload name to its runner.
var runners = map[string]func(options) (*result, error){
	"file-small": func(o options) (*result, error) { return runFiles(&fileSmall, o) },
	"file-large": func(o options) (*result, error) { return runFiles(&fileLarge, o) },
	"sim-pmemkv": runSim,
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: file-small, file-large or sim-pmemkv")
	flag.Uint64Var(&o.seed, "seed", 1, fmt.Sprintf("workload seed (%d is held out for re-checking claims)", HeldOutSeed))
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer ladder instead of the end-to-end run")
	flag.Parse()
	fn, ok := runners[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want file-small, file-large or sim-pmemkv)\n", o.workload)
		return 2
	}
	if o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1

	// A hung service must fail the run, not stall whoever waits for it.
	limit := max(170*time.Second, time.Duration((3*o.seconds+30)*float64(time.Second)))
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: run exceeded %v\n", o.workload, limit)
		os.Exit(1)
	})
	defer watchdog.Stop()

	declared, err := loadDeclared(o.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res, err := fn(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := res.conform(declared); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := report(o, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// declaredMetric is one metric as BENCHMARK.json declares it.
type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadDeclared reads the metric list of the run's mode (end_to_end, or
// per_layer for a traced run) from BENCHMARK.json in the working
// directory, the single list that scripts reading the results and this
// program both follow.
func loadDeclared(traced bool) ([]declaredMetric, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []declaredMetric `json:"end_to_end"`
		PerLayer []declaredMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if traced {
		return spec.PerLayer, nil
	}
	return spec.EndToEnd, nil
}

// conform orders the run's metrics as declared. A declared metric the
// workload does not measure (a service rung on sim-pmemkv, a simulation on
// a file workload) reads 0 with 0 samples; a measured metric that is not
// declared, or has another unit, is an error.
func (r *result) conform(declared []declaredMetric) error {
	got := make(map[string]metric, len(r.Metrics))
	for _, m := range r.Metrics {
		got[m.Name] = m
	}
	out := make([]metric, 0, len(declared))
	for _, d := range declared {
		m, ok := got[d.Name]
		if !ok {
			m = metric{Name: d.Name, Unit: d.Unit}
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		}
		delete(got, d.Name)
		out = append(out, m)
	}
	for name := range got {
		return fmt.Errorf("metric %s is measured but not declared in BENCHMARK.json", name)
	}
	r.Metrics = out
	return nil
}

// hostFacts are recorded beside every result: the numbers mean little
// without them.
func hostFacts() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// report prints the human-readable table, writes the detailed JSON file
// (and the Chrome trace of a traced run), and prints the JSON result as
// the last line.
func report(o options, res *result) error {
	mode := "end-to-end"
	if o.trace {
		mode = "traced per-layer"
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g (%s)\n", o.workload, o.seed, o.seconds, mode)
	for _, m := range res.Metrics {
		fmt.Printf("  %-44s %16.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	for _, p := range res.Problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
	if res.unlisted > 0 {
		fmt.Printf("  FAILED: %d more problems not listed\n", res.unlisted)
	}
	facts := hostFacts()
	fmt.Printf("  host: nproc=%v GOMAXPROCS=%v %v %v/%v\n", facts["nproc"], facts["gomaxprocs"], facts["go"], facts["goos"], facts["goarch"])
	fmt.Printf("  attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, map[bool]int{false: 0, true: 1}[o.trace]))
	detail := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"host": facts, "time": time.Now().UTC().Format(time.RFC3339),
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed,
		"metrics": res.Metrics, "problems": res.Problems, "unlisted_problems": res.unlisted,
	}
	if err := writeJSONFile(stem+".json", detail); err != nil {
		return err
	}
	if o.trace && len(res.Trace) > 0 {
		if err := writeChromeTrace(stem+".trace.json", res.Trace); err != nil {
			return err
		}
		fmt.Printf("  wrote %s (%d spans)\n", stem+".trace.json", len(res.Trace))
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(res.Metrics))
	for _, m := range res.Metrics {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank returns the nearest-rank p-quantile (0 < p <= 1) of sorted (0 for
// none).
func rank(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// geomean returns the geometric mean of positive xs (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
