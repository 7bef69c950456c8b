package bench

import (
	"fmt"
	"time"

	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/pack"
)

// This file is the repeat-traffic experiment of the PackPlan
// compilation layer: the same mask applied many times per machine —
// the halo-exchange / stream-compaction workload the plan cache
// targets. The virtual table (planrepeat) reports amortized per-call
// cost and cache hit rate inside the cost model; MeasurePlanRepeat
// additionally measures host wall clock for the perf report's
// "plan_repeat" object and the make planbench gate.

// planRepeatCalls is how many times each measured machine repeats the
// operation (quick and full mode). One compile per rank then
// calls-1 cache hits: hit rate (calls-1)/calls.
func (s Suite) planRepeatCalls() int {
	if s.Quick {
		return 120
	}
	return 200
}

// planRepeatArray returns the experiment's array configuration.
func (s Suite) planRepeatArray() (n, p int, ws []int) {
	if s.Quick {
		return 4096, 16, []int{16, 256}
	}
	return 65536, 16, []int{64, 4096}
}

// PlanRepeat regenerates the repeat-traffic comparison: amortized
// virtual time per call, unplanned versus planned, for every scheme of
// both operations.
func (s Suite) PlanRepeat() []*Table { return s.parallelize(Suite.planRepeat) }

func (s Suite) planRepeat() []*Table {
	n, p, ws := s.planRepeatArray()
	calls := s.planRepeatCalls()
	gen := mask.NewRandom(0.5, s.Seed+99, n)

	type opSpec struct {
		mode    Mode
		schemes []pack.Scheme
	}
	ops := []opSpec{
		{ModePack, []pack.Scheme{pack.SchemeSSS, pack.SchemeCSS, pack.SchemeCMS}},
		{ModeUnpack, []pack.Scheme{pack.SchemeSSS, pack.SchemeCSS}},
	}

	t := &Table{
		ID:      "planrepeat",
		Title:   fmt.Sprintf("Repeat traffic (same mask x%d): amortized cost per call (ms), 1-D N=%d, P=%d, 50%% mask", calls, n, p),
		Columns: []string{"W", "op", "scheme", "unplanned/call", "planned/call", "speedup", "hit rate"},
		Notes: []string{
			"planned: Options.Plans cache — call 1 compiles (ranking + run coalescing), every repeat executes bulk copies after a two-word collective lookup",
			fmt.Sprintf("hit rate per machine is (calls-1)/calls = %d/%d per rank; the wall-clock amortization gate lives in the perf report's plan_repeat object", calls-1, calls),
			"expected shape: speedup grows with W (fewer, longer runs) and is largest where ranking dominates the unplanned call",
		},
	}
	for _, w := range ws {
		layout := dist.MustLayout(dist.Dim{N: n, P: p, W: w})
		for _, op := range ops {
			for _, scheme := range op.schemes {
				base := Run{Layout: layout, Gen: gen, Opt: pack.Options{Scheme: scheme}, Mode: op.mode, Repeat: calls}
				un := s.measure(base)
				planned := base
				planned.Planned = true
				pl := s.measure(planned)
				speedup, hit := 0.0, 0.0
				if pl.TotalMS > 0 {
					speedup = un.TotalMS / pl.TotalMS
				}
				if v, ok := pl.Derived["plan_hit_rate"]; ok {
					hit = v
				}
				t.AddRow(fmt.Sprint(w), op.mode.String(), scheme.String(),
					ms(un.TotalMS/float64(calls)), ms(pl.TotalMS/float64(calls)),
					fmt.Sprintf("%.2fx", speedup), fmt.Sprintf("%.4f", hit))
			}
		}
	}
	return []*Table{t}
}

// PlanRepeatPerf is the wall-clock amortization measurement of the
// plan cache (perf report "plan_repeat", schema v5): the same
// repeat-traffic machine measured unplanned and planned on the host
// clock. Wall figures are per call, from the best of Reps repetitions
// (minimum — the standard noise floor for throughput measurements);
// the virtual figures and the hit rate come from the cost model and
// are exactly reproducible.
type PlanRepeatPerf struct {
	Config          string  `json:"config"`
	Calls           int     `json:"calls"`
	Reps            int     `json:"reps"`
	UnplannedWallMS float64 `json:"unplanned_wall_ms_per_call"`
	PlannedWallMS   float64 `json:"planned_wall_ms_per_call"`
	WallSpeedup     float64 `json:"wall_speedup"`
	VirtualSpeedup  float64 `json:"virtual_speedup"`
	HitRate         float64 `json:"hit_rate"`
}

// Gate checks the acceptance thresholds of the repeat-traffic
// experiment (make planbench): cache hit rate after warmup and
// amortized wall-time speedup of the planned path.
func (p PlanRepeatPerf) Gate(minHitRate, minWallSpeedup float64) error {
	if p.HitRate < minHitRate {
		return fmt.Errorf("plan-cache hit rate %.4f below gate %.4f", p.HitRate, minHitRate)
	}
	if p.WallSpeedup < minWallSpeedup {
		return fmt.Errorf("planned wall speedup %.2fx below gate %.2fx", p.WallSpeedup, minWallSpeedup)
	}
	return nil
}

// The wall-clock amortization gate times PACK under the standard
// scheme at the block distribution of the full-size experiment, with
// a 90% mask, in quick mode too. The gate protects what the plan cache
// is for: where the cost model predicts that a plan saves most of a
// call's local work (mean run length 10, virtual speedup about 1.9x),
// the planned path must deliver at least 1.3x on the host clock. With
// a 50% mask the model predicts 1.05x at the quick size and 1.3x at
// the full size — runs of two elements leave little for a plan to
// save — so a wall gate there measures host overheads, not the plan.
const (
	planGateN, planGateP, planGateW = 65536, 16, 4096
	planGateDensity                 = 0.9
)

// MeasurePlanRepeat measures the gate's repeat-traffic configuration
// on the host clock, bypassing the suite's memo cache: each of reps
// repetitions executes both machines fresh and the minimum wall per
// variant is kept.
func (s Suite) MeasurePlanRepeat() PlanRepeatPerf {
	n, p, w := planGateN, planGateP, planGateW
	calls := s.planRepeatCalls()
	layout := dist.MustLayout(dist.Dim{N: n, P: p, W: w})
	gen := mask.NewRandom(planGateDensity, s.Seed+99, n)
	base := Run{Layout: layout, Gen: gen, Opt: pack.Options{Scheme: pack.SchemeSSS}, Mode: ModePack, Repeat: calls}

	const reps = 3
	out := PlanRepeatPerf{
		Config: fmt.Sprintf("pack SSS, 1-D N=%d, P=%d, W=%d, %.0f%% mask", n, p, w, 100*planGateDensity),
		Calls:  calls,
		Reps:   reps,
	}
	var unVirt, plVirt float64
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		un, err := base.Execute()
		unWall := time.Since(start).Seconds() * 1000 / float64(calls)
		if err != nil {
			panic(err)
		}
		planned := base
		planned.Planned = true
		start = time.Now()
		pl, err := planned.Execute()
		plWall := time.Since(start).Seconds() * 1000 / float64(calls)
		if err != nil {
			panic(err)
		}
		if rep == 0 || unWall < out.UnplannedWallMS {
			out.UnplannedWallMS = unWall
		}
		if rep == 0 || plWall < out.PlannedWallMS {
			out.PlannedWallMS = plWall
		}
		unVirt, plVirt = un.TotalMS, pl.TotalMS
		out.HitRate = 0
		if pl.PlanStats != nil {
			out.HitRate = pl.PlanStats.HitRate()
		}
	}
	if out.PlannedWallMS > 0 {
		out.WallSpeedup = out.UnplannedWallMS / out.PlannedWallMS
	}
	if plVirt > 0 {
		out.VirtualSpeedup = unVirt / plVirt
	}
	return out
}
