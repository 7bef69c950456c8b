// Command packbench regenerates the tables and figures of the paper's
// evaluation section on the emulated coarse-grained machine.
//
// Usage:
//
//	packbench -exp all            # everything (DESIGN.md experiment index)
//	packbench -exp fig3           # one artifact: fig3|fig4|fig5|table1|table2|scale|prs|ablate
//	packbench -exp table2 -quick  # trimmed parameter sets (seconds instead of minutes)
//	packbench -parallel 1         # serial sweep (output is identical either way)
//	packbench -json perf.json     # also write a host-performance report
//	packbench -samples 5          # repeat each replay 5x for robust wall stats
//	packbench -exp faults -quick  # fault-injection robustness sweep (hidden from 'all')
//	packbench -faults 42:drop=0.01,dup=0.005  # inject faults into any experiment's machines
//	packbench -backend real       # measured wall-clock speedup on the real shared-memory backend
//	packbench -backend real -real-gate 2.0  # fail unless P=8 speedup >= 2x (make realbench)
//	packbench -backend real -json perf.json # v6 report with the real_world telemetry curve
//	packbench -metrics            # attach telemetry to every machine; print the Prometheus exposition
//	packbench -metrics-addr :9100 # additionally serve it live (/metrics, /vars) while running
//	packbench -flight-dir crash   # post-mortem flight dump if a sweep machine deadlocks or aborts
//	packbench -list               # show the available experiment ids
//
// All reported times are virtual machine times under the two-level
// cost model (CM-5-flavoured constants), in milliseconds. The -parallel
// flag only changes how fast the host gets there: experiment points run
// on a worker pool, but every virtual measurement and every rendered
// table is byte-identical to the serial run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"packunpack/internal/bench"
	"packunpack/internal/metrics"
	"packunpack/internal/serve/loadgen"
	"packunpack/internal/sim"
	"packunpack/internal/transport"
)

func main() {
	exp := flag.String("exp", "all", "experiment id to run (or 'all', or a comma list)")
	quick := flag.Bool("quick", false, "use trimmed parameter sets")
	seed := flag.Uint64("seed", 1, "seed for the random masks")
	list := flag.Bool("list", false, "list experiment ids and exit")
	outPath := flag.String("out", "", "also write the tables to this file")
	parallel := flag.Int("parallel", runtime.NumCPU(), "host worker pool size for the sweep engine (1 = serial)")
	jsonPath := flag.String("json", "", "write a host-performance report (schema "+bench.PerfSchema+") to this file")
	traceDir := flag.String("trace-dir", "", "run every experiment point with event tracing on and dump one Chrome trace-event JSON per point into this directory")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (samples carry experiment/stage/scheme labels)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	samples := flag.Int("samples", 1, "wall-clock samples per experiment: repeat each warm-cache replay this many times and report median/p10/p90/MAD")
	faultsFlag := flag.String("faults", "", "run every measured machine under a deterministic fault-injection plan, 'seed[:name=value,...]' (names: drop,dup,reorder,delay,stall,delaymax,stallmax,timeout,retries), e.g. '42:drop=0.01,dup=0.005'")
	planGate := flag.Bool("plan-gate", false, "measure plan-cache wall-clock amortization (plan_repeat) and fail unless hit rate >= 0.99 and wall speedup >= 1.3x (make planbench)")
	backendFlag := flag.String("backend", "sim", "transport backend: sim runs the virtual-time experiments; real runs the measured-vs-modeled speedup family (realworld) on the shared-memory parallel backend")
	realGate := flag.Float64("real-gate", 0, "with -backend real: fail unless the measured P=8 speedup over P=1 reaches this factor (auto-skipped when the host has fewer than 8 CPUs)")
	metricsFlag := flag.Bool("metrics", false, "attach a wall-clock telemetry registry to every measured machine and print the Prometheus exposition after the tables (tables and virtual times are unaffected)")
	metricsAddr := flag.String("metrics-addr", "", "serve the telemetry registry live over HTTP at this address (/metrics Prometheus text, /vars expvar JSON); implies -metrics")
	flightDir := flag.String("flight-dir", "", "attach the always-on flight recorder to every measured sweep machine and dump its window (Chrome trace + text post-mortem) into this directory if a machine deadlocks or exhausts a fault budget")
	serviceN := flag.Int("service", 0, "run the serving-layer soak with this many seeded arrivals (loadgen DES over internal/serve; deterministic virtual latency quantiles, schema v7 service object in -json reports)")
	flag.Parse()

	if *samples < 1 {
		fmt.Fprintf(os.Stderr, "packbench: -samples must be >= 1\n")
		os.Exit(2)
	}

	backend, err := transport.ParseBackend(*backendFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
		os.Exit(2)
	}
	if err := checkBackendFlags(backend, setFlagNames(flag.CommandLine)); err != nil {
		fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
		os.Exit(2)
	}

	suite := bench.NewSuite(*quick, *seed)
	suite.Workers = *parallel
	suite.Samples = *samples
	if *faultsFlag != "" {
		f, err := sim.ParseFaults(*faultsFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
			os.Exit(2)
		}
		suite.Faults = f
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
			os.Exit(1)
		}
		suite.TraceDir = *traceDir
	}
	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
			os.Exit(1)
		}
		suite.FlightDir = *flightDir
	}

	// Telemetry: one registry shared by every measured machine on the
	// sim sweep. The real backend builds a fresh registry per processor
	// count inside MeasureRealWorld (per-point derived figures must not
	// mix traffic), so there the OnRealRegistry hook keeps the live
	// server and the final exposition pointed at the current machine.
	var reg *metrics.Registry
	var srv *metrics.Server
	if *metricsFlag || *metricsAddr != "" {
		reg = metrics.NewRegistry()
		suite.Metrics = reg
	}
	if *metricsAddr != "" {
		var err error
		srv, err = metrics.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("telemetry: serving http://%s/metrics and /vars\n", srv.Addr())
	}
	if reg != nil {
		suite.OnRealRegistry = func(r *metrics.Registry) {
			reg = r
			if srv != nil {
				srv.SetRegistry(r)
			}
		}
	}

	// Profiling brackets both backends' runs: every successful return
	// from main below passes through this deferred stop, so neither
	// -cpuprofile nor -memprofile can be a silent no-op on either backend.
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiles()

	// The real backend runs the measured-speedup family and exits: its
	// figures are host wall clock, so it shares no machinery (and no
	// baselines) with the virtual-time sweep below.
	if backend == transport.BackendReal {
		fmt.Printf("packbench: realworld (quick=%v, seed=%d, backend=real)\n", *quick, *seed)
		env := suite.Environment()
		fmt.Printf("env: %s\n\n", env)
		start := time.Now()
		res, err := suite.MeasureRealWorld()
		if err != nil {
			fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
			os.Exit(1)
		}
		wallMS := float64(time.Since(start)) / float64(time.Millisecond)
		tables := []*bench.Table{res.Table()}
		bench.RenderAll(os.Stdout, tables)
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
				os.Exit(1)
			}
			bench.RenderAll(f, tables)
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *outPath)
		}
		if *jsonPath != "" {
			// One summary row stands in for the experiment grid (the v6
			// real_world object carries the full curve): every figure in
			// it is a host wall measurement except virtual_ms, which sums
			// the model half's predictions.
			row := bench.ExperimentPerf{
				ID:     "realworld",
				Tables: 1,
				Rows:   len(res.Points),
				WallMS: wallMS,
				// Each point runs one emulated machine plus Samples
				// measured real runs.
				MachineRuns: int64(len(res.Points) * (1 + res.Samples)),
				Derived:     res.DerivedMeans(),
			}
			for _, pt := range res.Points {
				row.VirtualMS += pt.ModelMS
			}
			rows := []bench.ExperimentPerf{row}
			report := bench.PerfReport{
				Schema:    bench.PerfSchema,
				GoVersion: runtime.Version(),
				NumCPU:    runtime.NumCPU(),
				Parallel:  *parallel,
				Scheduler: bench.EmulatorScheduler,
				Quick:     *quick,
				Seed:      *seed,
				Samples:   *samples,
				Env:       &env,

				Experiments: rows,
				Total:       bench.SumPerf(rows),
				RealWorld:   &res,
			}
			writeReport(*jsonPath, report)
		}
		if *metricsFlag && reg != nil {
			// reg was swapped by the OnRealRegistry hook, so this is the
			// last measured point's registry (P=8), not the empty suite one.
			fmt.Printf("\ntelemetry (Prometheus text format, last measured point):\n")
			if err := metrics.WritePrometheus(os.Stdout, reg); err != nil {
				fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
				os.Exit(1)
			}
		}
		if *realGate > 0 {
			if res.HostCPUs < 8 {
				fmt.Printf("real gate skipped: host has %d CPUs, the P=8 speedup contract needs at least 8\n", res.HostCPUs)
				return
			}
			if err := res.Gate(8, *realGate); err != nil {
				fmt.Fprintf(os.Stderr, "packbench: real gate failed: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("real gate passed: P=8 speedup >= %.2fx\n", *realGate)
		}
		return
	}

	if *list {
		fmt.Println("available experiments:")
		canonical := make(map[string]bool)
		for _, id := range suite.ExperimentIDs() {
			canonical[id] = true
			fmt.Printf("  %s\n", id)
		}
		// Hidden experiments run by explicit id only and never join
		// "-exp all" or the perf baselines.
		var hidden []string
		for id := range suite.Registry() {
			if !canonical[id] {
				hidden = append(hidden, id)
			}
		}
		sort.Strings(hidden)
		for _, id := range hidden {
			fmt.Printf("  %s (hidden: excluded from 'all')\n", id)
		}
		return
	}

	ids := suite.ExperimentIDs()
	if *exp != "all" {
		ids = nil
		known := suite.Registry()
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if _, ok := known[id]; !ok {
				fmt.Fprintf(os.Stderr, "packbench: unknown experiment %q (known: %s)\n",
					id, strings.Join(suite.ExperimentIDs(), ", "))
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	start := time.Now()
	var tables []*bench.Table
	perfs := make([]bench.ExperimentPerf, 0, 2*len(ids))
	for _, id := range ids {
		t, perf, err := suite.RunInstrumented(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
			os.Exit(1)
		}
		tables = append(tables, t...)
		perfs = append(perfs, perf...)
	}

	// The plan_repeat wall measurement runs when gating is requested or
	// when a perf report that includes the planrepeat experiment is
	// being written (so BENCH baselines record the amortization).
	var planPerf *bench.PlanRepeatPerf
	needPlanPerf := *planGate
	if *jsonPath != "" {
		for _, id := range ids {
			if id == "planrepeat" {
				needPlanPerf = true
			}
		}
	}
	if needPlanPerf {
		pp := suite.MeasurePlanRepeat()
		planPerf = &pp
		fmt.Printf("plan_repeat: %s — %d calls, unplanned %.4f ms/call, planned %.4f ms/call (%.2fx wall, %.2fx virtual), hit rate %.4f\n",
			pp.Config, pp.Calls, pp.UnplannedWallMS, pp.PlannedWallMS, pp.WallSpeedup, pp.VirtualSpeedup, pp.HitRate)
		if *planGate {
			if err := pp.Gate(0.99, 1.3); err != nil {
				fmt.Fprintf(os.Stderr, "packbench: plan gate failed: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("plan gate passed: hit rate >= 0.99, wall speedup >= 1.3x\n")
		}
	}

	// The service soak is the loadgen discrete-event model over
	// internal/serve: byte-verifies the workload mix against the
	// sequential reference, then replays the seeded arrival schedule.
	// Its outputs are deterministic virtual time, reported in the v7
	// "service" object and exact-compared by packdiff.
	var servicePerf *bench.ServicePerf
	if *serviceN > 0 {
		lr, err := loadgen.Run(loadgen.Config{Seed: *seed, Requests: *serviceN})
		if err != nil {
			fmt.Fprintf(os.Stderr, "packbench: service soak: %v\n", err)
			os.Exit(1)
		}
		servicePerf = &bench.ServicePerf{
			Seed: lr.Seed, Requests: lr.Requests, Admitted: lr.Admitted,
			Overloaded: lr.Overloaded, Workers: 8, Queue: 256,
			RatePerSec: lr.RatePerSec, DurationUS: lr.DurationUS,
			ThroughputRPS: lr.ThroughputRPS,
			P50US:         lr.P50US, P99US: lr.P99US, P999US: lr.P999US, SumUS: lr.SumUS,
		}
		for _, c := range lr.Classes {
			servicePerf.Classes = append(servicePerf.Classes, bench.ServiceClassPerf{
				Name: c.Name, Weight: c.Weight, ServiceUS: c.ServiceUS, Arrivals: c.Arrivals,
			})
		}
		fmt.Printf("service: %d requests at %.1f req/s — admitted %d, overloaded %d, p50/p99/p999 %d/%d/%d virtual µs (checksum %d)\n",
			lr.Requests, lr.RatePerSec, lr.Admitted, lr.Overloaded, lr.P50US, lr.P99US, lr.P999US, lr.SumUS)
	}

	// The header carries the environment fingerprint and sample count
	// so a pasted table is self-describing: virtual times are
	// host-independent, but anyone comparing the wall figures needs to
	// know what they were measured under.
	env := suite.Environment()
	fmt.Printf("packbench: %s (quick=%v, seed=%d, sched=%s)\n", *exp, *quick, *seed, bench.EmulatorScheduler)
	fmt.Printf("env: %s\n", env)
	fmt.Printf("machine model: CM-5-flavoured two-level cost model; times are virtual ms\n\n")
	bench.RenderAll(os.Stdout, tables)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
			os.Exit(1)
		}
		bench.RenderAll(f, tables)
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *outPath)
	}
	if *jsonPath != "" {
		report := bench.PerfReport{
			Schema:      bench.PerfSchema,
			GoVersion:   runtime.Version(),
			NumCPU:      runtime.NumCPU(),
			Parallel:    *parallel,
			Scheduler:   bench.EmulatorScheduler,
			Quick:       *quick,
			Seed:        *seed,
			Samples:     *samples,
			Env:         &env,
			Experiments: perfs,
			Total:       bench.SumPerf(perfs),
			PlanRepeat:  planPerf,
			Service:     servicePerf,
		}
		writeReport(*jsonPath, report)
	}
	if *metricsFlag && reg != nil {
		fmt.Printf("\ntelemetry (Prometheus text format):\n")
		if err := metrics.WritePrometheus(os.Stdout, reg); err != nil {
			fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Printf("generated %d tables in %.1fs wall time (parallel=%d)\n", len(tables), time.Since(start).Seconds(), *parallel)
}

// writeReport marshals the perf report, writes it, and validates the
// written file by reading it back: trajectory tooling diffs these
// reports blind, so a malformed or mis-versioned file should fail
// here, not there.
func writeReport(path string, report bench.PerfReport) {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
		os.Exit(1)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
		os.Exit(1)
	}
	var check bench.PerfReport
	if err := json.Unmarshal(written, &check); err != nil {
		fmt.Fprintf(os.Stderr, "packbench: written report does not parse: %v\n", err)
		os.Exit(1)
	}
	if check.Schema != bench.PerfSchema {
		fmt.Fprintf(os.Stderr, "packbench: written report carries schema %q, want %q\n", check.Schema, bench.PerfSchema)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (schema %s)\n", path, check.Schema)
}

// startProfiles starts the CPU profile (when cpuPath is set) and
// returns the function that stops it and writes the heap profile (when
// memPath is set). The stop function exits the process on a write
// error.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			// The profile must be flushed before the file closes.
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
				os.Exit(1)
			}
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
			os.Exit(1)
		}
		runtime.GC() // materialize up-to-date heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "packbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", memPath)
	}, nil
}
