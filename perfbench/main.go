// Command perfbench is the repository's benchmark: it runs one named
// workload for a fixed time, checks every output it produces, and
// prints each metric by name with its unit. BENCHMARK.json at the
// repository root declares the workloads and metrics; run.sh builds
// and runs this program from a checkout:
//
//	bash perfbench/run.sh --workload bulk-fresh --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, measured with span recording off;
// with --trace 1 they are the per-layer ones, derived from spans the
// benchmark records around its own calls into each module (written to
// .bench_build/spans-<workload>-<seed>.jsonl when the run ends).
//
// The workloads, and why each is here:
//
//   - bulk-fresh: closed loop, one SPMD caller on the real backend at
//     P=2, each call a 1-D CMS PACK of 2^18 elements under a fresh 50%
//     mask followed by the CSS UNPACK round trip; no plan cache. The
//     local layer (ranking scan, collect/compose, allocation) does
//     nearly all the work and fresh masks defeat plan reuse.
//   - serve-reuse: open-loop Poisson traffic at a fixed rate through
//     serve.Server (real backend, one worker, P=2), then a closed loop
//     with two outstanding callers, which gives the end-to-end figures.
//     Most requests reuse pooled masks, so admission, scatter/gather,
//     machine launch and the plan cache carry the work while ranking
//     is nearly absent.
//   - paper-sim: the paper's evaluation grid on the emulator, pass
//     after pass, with every run's virtual makespan, messages, words
//     and operations checked against recorded values (golden.json).
//     The emulator's scheduler, mailboxes and cost charging
//     carry the work; the real transport and the service stay idle.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef is one declared metric; BENCHMARK.json lists the same
// names and units (checked by TestBenchmarkJSONMatches).
type metricDef struct{ name, unit string }

// endToEnd are what a user of the library or the service sees. Every
// workload reports all of them for its own operations: a distributed
// call (bulk-fresh), a request (serve-reuse) or a grid run (paper-sim).
// Latencies are a median and a 90th percentile (see tailQ), each the
// best of the run's blocks (see statBlocks); cost_ratio is pack_ms_p50
// over the single-thread baseline's median on the same inputs.
var endToEnd = []metricDef{
	{"pack_ms_p50", "ms"},
	{"pack_ms_p90", "ms"},
	{"unpack_ms_p50", "ms"},
	{"unpack_ms_p90", "ms"},
	{"cost_ratio", "ratio"},
	{"ops_per_s", "1/s"},
	{"heap_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer come from the traced run. A workload that does not exercise
// a layer reports 0 for it.
var perLayer = []metricDef{
	{"serve.open_ms_p50", "ms"},
	{"serve.open_ms_p99", "ms"},
	{"serve.submit_us_p50", "us"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.queue_ms_p99", "ms"},
	{"serve.service_ms_p50", "ms"},
	{"serve.service_ms_p99", "ms"},
	{"serve.rejected", "count"},
	{"serve.errors", "count"},
	{"serve.plan_hit_ratio", "ratio"},
	{"serve.plans_cached", "count"},
	{"dist.scatter_ms_p50", "ms"},
	{"dist.gather_ms_p50", "ms"},
	{"transport.run_empty_us_p50", "us"},
	{"transport.msgs_per_call", "count"},
	{"transport.words_per_call", "count"},
	{"ranking.rank_ms_p50", "ms"},
	{"comm.prs_us_p50", "us"},
	{"comm.a2a_ms_p50", "ms"},
	{"pack.alloc_kb_per_call", "kB"},
	{"pack.mallocs_per_call", "count"},
	{"pack.gc_cycles", "count"},
	{"pack.compile_ms_p50", "ms"},
	{"pack.planpack_us_p50", "us"},
	{"seq.pack_ms_p50", "ms"},
	{"baseline.pack_ms_p50", "ms"},
	{"baseline.unpack_ms_p50", "ms"},
	{"sim.run_ms_p50", "ms"},
	{"sim.virtual_ms_total", "ms"},
	{"sim.msgs_total", "count"},
	{"sim.words_total", "count"},
	{"sim.ops_total", "count"},
	{"redist.red1_ms_p50", "ms"},
	{"redist.red2_ms_p50", "ms"},
	{"mask.fill_ms", "ms"},
	{"gen.late_ms_max", "ms"},
	{"fail_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) (*result, error){
	"bulk-fresh":  runBulk,
	"serve-reuse": runServe,
	"paper-sim":   runPaper,
}

// config is what every workload runner receives.
type config struct {
	seed    uint64
	seconds float64
	tr      *tracer // enabled only in the traced run
}

// value is one reported metric with the number of samples behind it.
type value struct {
	v float64
	n int
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	vals              map[string]value
}

func newResult() *result { return &result{vals: make(map[string]value)} }

func (r *result) set(name string, v float64, n int) { r.vals[name] = value{v, n} }

// fail counts one failed, rejected or wrong-output operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 5

// timeSetups runs setup setupReps times, each after a forced collection
// so that garbage from the one before does not land in its time, and
// returns the durations in seconds.
func timeSetups(setup func() error) (series, error) {
	var s series
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		s.addDur(time.Since(start), time.Second)
	}
	return s, nil
}

// heapMB forces a collection and returns the live heap in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// emit prints a human-readable table with sample counts, then the
// JSON result line.
func emit(res *result, defs []metricDef, tr *tracer) error {
	out := output{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricOut, len(defs))}
	for _, d := range defs {
		v := res.vals[d.name]
		if math.IsInf(v.v, 0) || math.IsNaN(v.v) {
			// Only a run whose operations all failed divides by zero.
			fmt.Fprintf(os.Stderr, "perfbench: %s is %v; reported as 0\n", d.name, v.v)
			v.v = 0
		}
		fmt.Printf("%-28s %14.6g %-6s n=%d\n", d.name, v.v, d.unit, v.n)
		out.Metrics[d.name] = metricOut{Value: v.v, Unit: d.unit}
	}
	fmt.Printf("%-28s %14d\n%-28s %14d\n", "attempted", res.attempted, "failed", res.failed)
	if tr.enabled() {
		self := selfTimes(tr.spans)
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println("span self time (ms):")
		for _, n := range names {
			fmt.Printf("  %-26s %12.3f\n", n, float64(self[n])/float64(time.Millisecond))
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload name (bulk-fresh, serve-reuse, paper-sim)")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measured time in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	record := flag.String("record-golden", "", "paper-sim only: write the grid's virtual results to this file and exit")
	flag.Parse()

	if *record != "" {
		return recordGolden(*record)
	}
	runner, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if *traced != 0 && *traced != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	cfg := config{seed: *seed, seconds: *seconds, tr: newTracer(*traced == 1)}
	res, err := runner(cfg)
	if err != nil {
		return err
	}
	if res.attempted < 1 {
		return errors.New("no operation attempted")
	}
	defs := endToEnd
	if cfg.tr.enabled() {
		defs = perLayer
		res.set("fail_frac", float64(res.failed)/float64(res.attempted), res.attempted)
		if err := cfg.tr.write(fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", *workload, *seed)); err != nil {
			return err
		}
	}
	return emit(res, defs, cfg.tr)
}
