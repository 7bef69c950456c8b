package main

import (
	"fmt"
	"runtime"
	"time"

	"packunpack/internal/comm"
	"packunpack/internal/dist"
	"packunpack/internal/pack"
	"packunpack/internal/ranking"
	"packunpack/internal/transport"
)

// The traced run times the layers a distributed call passes through by
// calling each layer's public function on its own, with the call's
// inputs, and recording a span around it. Inside a machine run only
// rank 0 records, so each collective is one span.

// probeInput is one distributed problem: its layout, global data, the
// per-rank portions of data and mask, and the spans to hang probes on.
type probeInput struct {
	l           *dist.Layout
	global      []int
	locals      [][]int
	maskLocals  [][]bool
	opt         pack.Options
	parent, req int64
}

// probeLayers records one span per layer call on m for in:
// transport.Run (empty body), ranking.Rank, comm.PrefixReductionSum
// over the slice counts, comm.AlltoallV with the call's per-destination
// counts, pack.CompilePlan, pack.PlanPack, dist.Scatter and
// dist.Gather.
func probeLayers(m transport.Machine, tr *tracer, in probeInput) error {
	start := time.Now()
	if err := m.Run(func(transport.Endpoint) {}); err != nil {
		return fmt.Errorf("empty run: %w", err)
	}
	tr.record(0, in.parent, in.req, "transport.Run", start, time.Now())

	err := m.Run(func(ep transport.Endpoint) {
		rank := ep.Rank()
		leaf := func(name string, fn func()) { rank0Leaf(tr, rank, in.parent, in.req, name, fn) }
		var rnk *ranking.Result
		var rerr error
		leaf("ranking.Rank", func() {
			rnk, rerr = ranking.Rank(ep, in.l, in.maskLocals[rank], ranking.Options{})
		})
		if rerr != nil {
			panic(rerr)
		}
		world := comm.World(ep)
		leaf("comm.PrefixReductionSum", func() { world.PrefixReductionSum(rnk.PSc, in.opt.PRS) })
		vec, verr := dist.NewVectorDist(rnk.Size, ep.NProcs(), in.opt.VectorW)
		if verr != nil {
			panic(verr)
		}
		send := make([][]int, ep.NProcs())
		for d, c := range destCounts(rnk, vec, ep.NProcs()) {
			send[d] = make([]int, c)
		}
		leaf("comm.AlltoallV", func() { comm.AlltoallV(world, send, 1) })
	})
	if err != nil {
		return fmt.Errorf("ranking probe: %w", err)
	}

	err = m.Run(func(ep transport.Endpoint) {
		rank := ep.Rank()
		var pl *pack.Plan
		var perr error
		rank0Leaf(tr, rank, in.parent, in.req, "pack.CompilePlan", func() {
			pl, perr = pack.CompilePlan(ep, in.l, in.maskLocals[rank], in.opt)
		})
		if perr != nil {
			panic(perr)
		}
		rank0Leaf(tr, rank, in.parent, in.req, "pack.PlanPack", func() { _, perr = pack.PlanPack(ep, pl, in.locals[rank]) })
		if perr != nil {
			panic(perr)
		}
	})
	if err != nil {
		return fmt.Errorf("plan probe: %w", err)
	}

	var locals [][]int
	tr.timed(in.parent, in.req, "dist.Scatter", func() { locals = dist.Scatter(in.l, in.global) })
	tr.timed(in.parent, in.req, "dist.Gather", func() { dist.Gather(in.l, locals) })
	return nil
}

// rank0Leaf runs fn on every rank and records it as a span on rank 0.
func rank0Leaf(tr *tracer, rank int, parent, req int64, name string, fn func()) {
	if rank != 0 {
		fn()
		return
	}
	tr.timed(parent, req, name, fn)
}

// destCounts returns how many of this rank's selected elements go to
// each destination under the result vector distribution: slice s holds
// PSc[s] elements with consecutive global ranks from PSf[s].
func destCounts(rnk *ranking.Result, vec dist.VectorDist, procs int) []int {
	counts := make([]int, procs)
	for s, c := range rnk.PSc {
		for r := rnk.PSf[s]; r < rnk.PSf[s]+c; r++ {
			d, _ := vec.Owner(r)
			counts[d]++
		}
	}
	return counts
}

// allocMeter reads runtime allocation counters around one call.
type allocMeter struct{ before runtime.MemStats }

func (a *allocMeter) start() { runtime.ReadMemStats(&a.before) }

// stop returns the bytes and objects allocated and GC cycles completed
// since start.
func (a *allocMeter) stop() (bytes, mallocs, gcs uint64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - a.before.TotalAlloc, after.Mallocs - a.before.Mallocs,
		uint64(after.NumGC - a.before.NumGC)
}

// setLayerQuantiles turns the spans of each probed layer into its
// per-layer metric, and the set-up's mask fills into mask.fill_ms, the
// fill time of one set-up.
func setLayerQuantiles(res *result, tr *tracer) {
	for _, q := range []struct {
		metric, span string
		unit         time.Duration
	}{
		{"transport.run_empty_us_p50", "transport.Run", time.Microsecond},
		{"ranking.rank_ms_p50", "ranking.Rank", time.Millisecond},
		{"comm.prs_us_p50", "comm.PrefixReductionSum", time.Microsecond},
		{"comm.a2a_ms_p50", "comm.AlltoallV", time.Millisecond},
		{"pack.compile_ms_p50", "pack.CompilePlan", time.Millisecond},
		{"pack.planpack_us_p50", "pack.PlanPack", time.Microsecond},
		{"dist.scatter_ms_p50", "dist.Scatter", time.Millisecond},
		{"dist.gather_ms_p50", "dist.Gather", time.Millisecond},
		{"seq.pack_ms_p50", "seq.Pack", time.Millisecond},
		{"baseline.pack_ms_p50", "baseline.pack", time.Millisecond},
		{"baseline.unpack_ms_p50", "baseline.unpack", time.Millisecond},
	} {
		s := tr.durations(q.span, q.unit)
		res.set(q.metric, s.median(), len(s))
	}
	fills := tr.durations("mask.fill", time.Millisecond)
	res.set("mask.fill_ms", fills.sum()/setupReps, len(fills))
}
