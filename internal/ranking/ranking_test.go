package ranking

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"packunpack/internal/comm"
	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/seq"
	"packunpack/internal/sim"
)

// oracleCheck runs the parallel ranking on an emulated machine and
// verifies every per-element rank, the Size, PS_f and PS_c against the
// sequential oracle.
func oracleCheck(t *testing.T, l *dist.Layout, gen mask.Gen, opt Options) {
	t.Helper()
	gmask := mask.FillGlobal(l, gen)
	wantRanks := seq.Ranks(gmask)
	wantSize := seq.Count(gmask)

	m := sim.MustNew(sim.Config{Procs: l.Procs()})
	results := make([]*Result, l.Procs())
	masks := make([][]bool, l.Procs())
	err := m.Run(func(p *sim.Proc) {
		lm := mask.FillLocal(l, p.Rank(), gen)
		masks[p.Rank()] = lm
		keep := opt
		keep.KeepRecords = true // always verify via records
		res, err := Rank(p, l, lm, keep)
		if err != nil {
			panic(err)
		}
		results[p.Rank()] = res
	})
	if err != nil {
		t.Fatalf("machine run failed: %v", err)
	}

	totalRecords := 0
	for rank, res := range results {
		if res.Size != wantSize {
			t.Fatalf("rank %d: Size=%d, oracle %d", rank, res.Size, wantSize)
		}
		totalRecords += len(res.Records)
		if res.LocalTrue != len(res.Records) {
			t.Fatalf("rank %d: LocalTrue %d != records %d", rank, res.LocalTrue, len(res.Records))
		}
		for _, rec := range res.Records {
			g := l.LocalToGlobal(rank, rec.Off)
			pos := l.FlattenGlobal(g)
			if !gmask[pos] {
				t.Fatalf("rank %d: record at unselected position %d", rank, pos)
			}
			if got := res.RankOf(rec); got != wantRanks[pos] {
				t.Fatalf("rank %d: element at global pos %d ranked %d, oracle %d (layout %v)", rank, pos, got, wantRanks[pos], l)
			}
		}
		// PS_c must count the selected elements per slice.
		sumPSc := 0
		for _, c := range res.PSc {
			sumPSc += c
		}
		if sumPSc != res.LocalTrue {
			t.Fatalf("rank %d: PSc sums to %d, want %d", rank, sumPSc, res.LocalTrue)
		}
		if len(res.PSf) != l.Slices() || len(res.PSc) != l.Slices() {
			t.Fatalf("rank %d: base-rank arrays sized %d/%d, want %d", rank, len(res.PSf), len(res.PSc), l.Slices())
		}
	}
	if totalRecords != wantSize {
		t.Fatalf("records total %d, oracle Size %d", totalRecords, wantSize)
	}
}

func shapes(l *dist.Layout) []int {
	s := make([]int, l.Rank())
	for i, d := range l.Dims {
		s[i] = d.N
	}
	return s
}

func TestRankingMatchesOracle(t *testing.T) {
	layouts := map[string]*dist.Layout{
		"1d-cyclic":  dist.MustLayout(dist.Dim{N: 32, P: 4, W: 1}),
		"1d-bc2":     dist.MustLayout(dist.Dim{N: 32, P: 4, W: 2}),
		"1d-block":   dist.MustLayout(dist.Dim{N: 32, P: 4, W: 8}),
		"1d-serial":  dist.MustLayout(dist.Dim{N: 12, P: 1, W: 4}),
		"1d-np2":     dist.MustLayout(dist.Dim{N: 45, P: 3, W: 5}),
		"2d":         dist.MustLayout(dist.Dim{N: 8, P: 2, W: 2}, dist.Dim{N: 8, P: 2, W: 2}),
		"2d-cyclic":  dist.MustLayout(dist.Dim{N: 6, P: 3, W: 1}, dist.Dim{N: 8, P: 2, W: 1}),
		"2d-ragged":  dist.MustLayout(dist.Dim{N: 12, P: 2, W: 2}, dist.Dim{N: 10, P: 5, W: 1}),
		"3d":         dist.MustLayout(dist.Dim{N: 4, P: 2, W: 2}, dist.Dim{N: 6, P: 3, W: 1}, dist.Dim{N: 4, P: 2, W: 1}),
		"4d":         dist.MustLayout(dist.Dim{N: 4, P: 2, W: 1}, dist.Dim{N: 2, P: 1, W: 2}, dist.Dim{N: 4, P: 2, W: 2}, dist.Dim{N: 2, P: 2, W: 1}),
		"2d-serial1": dist.MustLayout(dist.Dim{N: 8, P: 4, W: 1}, dist.Dim{N: 4, P: 1, W: 2}),
	}
	for lname, l := range layouts {
		sh := shapes(l)
		gens := map[string]mask.Gen{
			"d25":   mask.NewRandom(0.25, 5, sh...),
			"d75":   mask.NewRandom(0.75, 6, sh...),
			"full":  mask.Full{},
			"empty": mask.Empty{},
		}
		if l.Rank() == 2 {
			gens["lt"] = mask.UpperTriangle{}
		}
		for gname, gen := range gens {
			t.Run(fmt.Sprintf("%s/%s", lname, gname), func(t *testing.T) {
				oracleCheck(t, l, gen, Options{})
			})
		}
	}
}

func TestRankingPRSVariants(t *testing.T) {
	l := dist.MustLayout(dist.Dim{N: 64, P: 8, W: 2})
	gen := mask.NewRandom(0.5, 9, 64)
	for _, algo := range []comm.PRSAlgorithm{comm.PRSAuto, comm.PRSDirect, comm.PRSSplit} {
		t.Run(algo.String(), func(t *testing.T) {
			oracleCheck(t, l, gen, Options{PRS: algo})
		})
	}
	t.Run("separate", func(t *testing.T) {
		oracleCheck(t, l, gen, Options{SeparatePrefixReduce: true})
	})
}

// TestRankingProperty drives random layouts and densities through the
// oracle comparison with testing/quick.
func TestRankingProperty(t *testing.T) {
	// Factor pools guaranteeing valid layouts: N = P*W*T.
	pvals := []int{1, 2, 3, 4}
	wvals := []int{1, 2, 3}
	tvals := []int{1, 2, 3}
	f := func(p1, w1, t1, p2, w2, t2 uint, dpct uint8, seed uint64) bool {
		d0 := dist.Dim{P: pvals[p1%4], W: wvals[w1%3]}
		d0.N = d0.P * d0.W * tvals[t1%3]
		d1 := dist.Dim{P: pvals[p2%4], W: wvals[w2%3]}
		d1.N = d1.P * d1.W * tvals[t2%3]
		l, err := dist.NewLayout(d0, d1)
		if err != nil {
			return false
		}
		density := float64(dpct%101) / 100
		gen := mask.NewRandom(density, seed, d0.N, d1.N)

		gmask := mask.FillGlobal(l, gen)
		wantRanks := seq.Ranks(gmask)
		wantSize := seq.Count(gmask)

		m := sim.MustNew(sim.Config{Procs: l.Procs()})
		ok := true
		err = m.Run(func(p *sim.Proc) {
			lm := mask.FillLocal(l, p.Rank(), gen)
			res, err := Rank(p, l, lm, Options{KeepRecords: true})
			if err != nil {
				panic(err)
			}
			if res.Size != wantSize {
				ok = false
				return
			}
			for _, rec := range res.Records {
				pos := l.FlattenGlobal(l.LocalToGlobal(p.Rank(), rec.Off))
				if res.RankOf(rec) != wantRanks[pos] {
					ok = false
					return
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1234))}); err != nil {
		t.Fatal(err)
	}
}

func TestRankBadInputs(t *testing.T) {
	l := dist.MustLayout(dist.Dim{N: 16, P: 4, W: 2})
	m := sim.MustNew(sim.Config{Procs: 4})
	err := m.Run(func(p *sim.Proc) {
		if _, err := Rank(p, l, make([]bool, 3), Options{}); err == nil {
			panic("short mask accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Machine size mismatch.
	m2 := sim.MustNew(sim.Config{Procs: 2})
	err = m2.Run(func(p *sim.Proc) {
		if _, err := Rank(p, l, make([]bool, 4), Options{}); err == nil {
			panic("machine/layout mismatch accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDimGroups(t *testing.T) {
	l := dist.MustLayout(dist.Dim{N: 8, P: 2, W: 2}, dist.Dim{N: 9, P: 3, W: 3})
	m := sim.MustNew(sim.Config{Procs: 6})
	err := m.Run(func(p *sim.Proc) {
		groups, err := DimGroups(p, l)
		if err != nil {
			panic(err)
		}
		if len(groups) != 2 {
			panic("want 2 groups")
		}
		if groups[0].Size() != 2 || groups[1].Size() != 3 {
			panic(fmt.Sprintf("group sizes %d/%d", groups[0].Size(), groups[1].Size()))
		}
		coords := l.GridCoords(p.Rank())
		if groups[0].Index() != coords[0] || groups[1].Index() != coords[1] {
			panic("group index must equal the grid coordinate")
		}
		// All members of group i share the other coordinate.
		for _, r := range groups[0].Ranks() {
			if l.GridCoords(r)[1] != coords[1] {
				panic("dim-0 group mixes dim-1 coordinates")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSliceBase(t *testing.T) {
	// L0=8, W0=2, T0=4: slice s covers offsets [base, base+2), and
	// slice 4 (the first of the next dimension-1 row) starts at L0.
	cases := map[int]int{0: 0, 1: 2, 2: 4, 3: 6, 4: 8, 5: 10}
	for slice, want := range cases {
		if got := SliceBase(slice, 2); got != want {
			t.Errorf("SliceBase(%d) = %d, want %d", slice, got, want)
		}
	}
}

func TestRankingChargesWork(t *testing.T) {
	// The ranking stage must charge local work proportional to the
	// local array plus the base-rank arrays — never zero.
	l := dist.MustLayout(dist.Dim{N: 64, P: 4, W: 2})
	gen := mask.NewRandom(0.5, 3, 64)
	m := sim.MustNew(sim.Config{Procs: 4, Params: sim.CM5Params()})
	err := m.Run(func(p *sim.Proc) {
		lm := mask.FillLocal(l, p.Rank(), gen)
		if _, err := Rank(p, l, lm, Options{}); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range m.Stats() {
		if s.Ops < int64(l.LocalSize()) {
			t.Fatalf("rank %d charged only %d ops", s.Rank, s.Ops)
		}
		if _, okPhase := s.Phases[PhasePRS]; !okPhase {
			t.Fatalf("rank %d has no PRS phase booked", s.Rank)
		}
	}
}

func TestSSSChargesMoreThanCSSPerRecord(t *testing.T) {
	// With a dense mask, record maintenance must make SSS's ranking
	// local computation strictly heavier than CSS's initial-scan cost
	// difference — i.e. ops(SSS) > ops(CSS) at equal inputs.
	l := dist.MustLayout(dist.Dim{N: 256, P: 4, W: 64})
	gen := mask.NewRandom(0.9, 3, 256)
	ops := func(keep bool) int64 {
		m := sim.MustNew(sim.Config{Procs: 4, Params: sim.CM5Params()})
		err := m.Run(func(p *sim.Proc) {
			lm := mask.FillLocal(l, p.Rank(), gen)
			if _, err := Rank(p, l, lm, Options{KeepRecords: keep}); err != nil {
				panic(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, s := range m.Stats() {
			total += s.Ops
		}
		return total
	}
	if sss, css := ops(true), ops(false); sss <= css {
		t.Fatalf("SSS ranking ops (%d) should exceed CSS ranking ops (%d) at 90%% density", sss, css)
	}
}

// TestRankingFigure1Example pins down the paper's Figure 1 setting —
// a one-dimensional array of 16 elements distributed block-cyclic(2)
// over four processors — with a mask of ten selected elements
// (Figure 1 also shows Size = 10), and asserts the exact counter and
// base-rank arrays computed by hand:
//
//	global position: 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15
//	mask:            T T F T T F F T F T T  F  T  F  T  T
//	rank:            0 1 . 2 3 . . 4 . 5 6  .  7  .  8  9
//
// Processor p owns blocks {p, p+4}*2; e.g. processor 0 owns global
// {0,1} (its slice 0) and {8,9} (its slice 1).
func TestRankingFigure1Example(t *testing.T) {
	l := dist.MustLayout(dist.Dim{N: 16, P: 4, W: 2})
	sel := map[int]bool{0: true, 1: true, 3: true, 4: true, 7: true, 9: true, 10: true, 12: true, 14: true, 15: true}
	gmask := make([]bool, 16)
	for g := range gmask {
		gmask[g] = sel[g]
	}
	locals := dist.Scatter(l, gmask)

	wantPSc := map[int][]int{
		0: {2, 1}, // {0,1}: T,T   {8,9}: F,T
		1: {1, 1}, // {2,3}: F,T   {10,11}: T,F
		2: {1, 1}, // {4,5}: T,F   {12,13}: T,F
		3: {1, 2}, // {6,7}: F,T   {14,15}: T,T
	}
	wantPSf := map[int][]int{
		0: {0, 5}, // ranks before global 0 and before global 8
		1: {2, 6}, // before 2, before 10
		2: {3, 7}, // before 4, before 12
		3: {4, 8}, // before 6, before 14
	}

	m := sim.MustNew(sim.Config{Procs: 4})
	err := m.Run(func(p *sim.Proc) {
		res, err := Rank(p, l, locals[p.Rank()], Options{})
		if err != nil {
			panic(err)
		}
		if res.Size != 10 {
			panic(fmt.Sprintf("Size = %d, want 10", res.Size))
		}
		if got, want := res.PSc, wantPSc[p.Rank()]; !equalInts(got, want) {
			panic(fmt.Sprintf("proc %d: PSc = %v, want %v", p.Rank(), got, want))
		}
		if got, want := res.PSf, wantPSf[p.Rank()]; !equalInts(got, want) {
			panic(fmt.Sprintf("proc %d: PSf = %v, want %v", p.Rank(), got, want))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
