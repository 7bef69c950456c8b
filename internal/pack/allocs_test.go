package pack

import (
	"testing"

	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/ranking"
	"packunpack/internal/sim"
)

// composeAllocs measures the heap allocations of one compose call for
// rank 0 of a P=4 cyclic layout with an n-element global array. The
// ranking stage (a collective) runs once up front; the compose
// functions themselves are pure local work, so they can be measured
// after the machine run on a quiet heap.
func composeAllocs(t *testing.T, n int, compose func(p *sim.Proc, l *dist.Layout, a []int, rnk *ranking.Result, vec dist.VectorDist)) float64 {
	t.Helper()
	l := dist.MustLayout(dist.Dim{N: n, P: 4, W: 8})
	machine := sim.MustNew(sim.Config{Procs: 4})
	var rnk *ranking.Result
	var proc *sim.Proc
	err := machine.Run(func(p *sim.Proc) {
		lm := mask.FillLocal(l, p.Rank(), mask.NewRandom(0.5, 7, n))
		r, err := ranking.Rank(p, l, lm, ranking.Options{})
		if err != nil {
			panic(err)
		}
		if p.Rank() == 0 {
			rnk = r
			proc = p
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	a := make([]int, l.LocalSize())
	for i := range a {
		a[i] = i
	}
	vec, err := dist.NewVectorDist(rnk.Size, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Charging against a finished machine's rank-0 proc is harmless:
	// it only advances that proc's (no longer read) virtual clock.
	return testing.AllocsPerRun(20, func() {
		compose(proc, l, a, rnk, vec)
	})
}

// TestComposeHotPathAllocations is the allocation-regression guard for
// the exact-sized send lists: the compose functions must allocate a
// small constant number of buffers (the counts, the arenas, the slice
// scratch) regardless of how many elements are selected. Per-element
// append growth would scale these numbers with n.
func TestComposeHotPathAllocations(t *testing.T) {
	const maxAllocs = 10.0
	for _, n := range []int{1024, 8192} {
		css := composeAllocs(t, n, func(p *sim.Proc, l *dist.Layout, a []int, rnk *ranking.Result, vec dist.VectorDist) {
			send := make([][]pair[int], 4)
			composePairsCSS(p, l.Dims[0].W, a, rnk, vec, send, false)
		})
		if css > maxAllocs {
			t.Errorf("composePairsCSS(n=%d): %.0f allocs/run, want <= %.0f (send lists must be exact-sized)", n, css, maxAllocs)
		}
		cms := composeAllocs(t, n, func(p *sim.Proc, l *dist.Layout, a []int, rnk *ranking.Result, vec dist.VectorDist) {
			send := make([][]segMsg[int], 4)
			composeSegmentsCMS(p, l.Dims[0].W, a, rnk, vec, send, false)
		})
		if cms > maxAllocs {
			t.Errorf("composeSegmentsCMS(n=%d): %.0f allocs/run, want <= %.0f (segment/data arenas must be exact-sized)", n, cms, maxAllocs)
		}
	}
}

// TestPlanComposeAllocations extends the guard to the compiled-plan
// path: executing a plan composes from the precompiled run list into
// two exact-sized arenas, so the per-call allocation count must stay a
// small constant regardless of n — the warm-call cost the plan cache
// amortizes toward.
func TestPlanComposeAllocations(t *testing.T) {
	const maxAllocs = 10.0
	for _, n := range []int{1024, 8192} {
		l := dist.MustLayout(dist.Dim{N: n, P: 4, W: 8})
		machine := sim.MustNew(sim.Config{Procs: 4})
		var pl *Plan
		var proc *sim.Proc
		err := machine.Run(func(p *sim.Proc) {
			lm := mask.FillLocal(l, p.Rank(), mask.NewRandom(0.5, 7, n))
			cp, err := CompilePlan(p, l, lm, Options{})
			if err != nil {
				panic(err)
			}
			if p.Rank() == 0 {
				pl = cp
				proc = p
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		a := make([]int, l.LocalSize())
		for i := range a {
			a[i] = i
		}
		got := testing.AllocsPerRun(20, func() {
			composePlanSegs(proc, pl, a)
		})
		if got > maxAllocs {
			t.Errorf("composePlanSegs(n=%d): %.0f allocs/run, want <= %.0f (plan exec must reuse the compiled runs, not rebuild them)", n, got, maxAllocs)
		}
	}
}
