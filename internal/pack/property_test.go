package pack

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/seq"
	"packunpack/internal/sim"
)

// TestPackPropertyRandomConfigs drives randomly generated layouts,
// densities, schemes and vector distributions through the oracle
// comparison.
func TestPackPropertyRandomConfigs(t *testing.T) {
	pvals := []int{1, 2, 3, 4}
	wvals := []int{1, 2, 4}
	tvals := []int{1, 2, 3}
	f := func(p1, w1, t1, p2, w2, t2 uint, dpct uint8, seed uint64, schemeSel, wvSel uint8) bool {
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
		scheme := []Scheme{SchemeSSS, SchemeCSS, SchemeCMS}[schemeSel%3]
		wv := []int{0, 1, 2, 5}[wvSel%4]

		global := make([]int, l.GlobalSize())
		for i := range global {
			global[i] = i * 7
		}
		gmask := mask.FillGlobal(l, gen)
		want := seq.Pack(global, gmask)
		locals := dist.Scatter(l, global)

		m := sim.MustNew(sim.Config{Procs: l.Procs()})
		results := make([]*Result[int], l.Procs())
		err = m.Run(func(p *sim.Proc) {
			lm := mask.FillLocal(l, p.Rank(), gen)
			res, err := Pack(p, l, locals[p.Rank()], lm, Options{Scheme: scheme, VectorW: wv})
			if err != nil {
				panic(err)
			}
			results[p.Rank()] = res
		})
		if err != nil {
			return false
		}
		got := make([]int, len(want))
		for rank, res := range results {
			if res.Ranking.Size != len(want) {
				return false
			}
			for i, v := range res.V {
				got[res.Vec.ToGlobal(rank, i)] = v
			}
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(99))}); err != nil {
		t.Fatal(err)
	}
}

// TestExhaustiveSmallConfigs enumerates every legal (P, W) pair for a
// small 1-D array and every scheme — complete coverage of the
// distribution space at this size.
func TestExhaustiveSmallConfigs(t *testing.T) {
	const n = 24
	gen := mask.NewRandom(0.5, 31, n)
	for p := 1; p <= n; p++ {
		if n%p != 0 {
			continue
		}
		localSize := n / p
		for w := 1; w <= localSize; w++ {
			if localSize%w != 0 {
				continue
			}
			l := dist.MustLayout(dist.Dim{N: n, P: p, W: w})
			for _, scheme := range []Scheme{SchemeSSS, SchemeCSS, SchemeCMS} {
				t.Run(fmt.Sprintf("P%d/W%d/%v", p, w, scheme), func(t *testing.T) {
					runPack(t, l, gen, Options{Scheme: scheme})
				})
			}
		}
	}
}

// TestPackDeterministicTimings: two identical runs must produce
// identical virtual-time statistics (bit-for-bit), the emulator's
// reproducibility guarantee.
func TestPackDeterministicTimings(t *testing.T) {
	l := dist.MustLayout(dist.Dim{N: 16, P: 2, W: 2}, dist.Dim{N: 16, P: 2, W: 4})
	gen := mask.NewRandom(0.5, 77, 16, 16)
	run := func() []sim.Stats {
		m := sim.MustNew(sim.Config{Procs: 4, Params: sim.CM5Params()})
		err := m.Run(func(p *sim.Proc) {
			a := make([]int, l.LocalSize())
			lm := mask.FillLocal(l, p.Rank(), gen)
			if _, err := Pack(p, l, a, lm, Options{Scheme: SchemeCMS}); err != nil {
				panic(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.Stats()
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("identical pack runs produced different statistics")
	}
}

// TestPackUnpackRoundTripOnMachine: UNPACK(PACK(a,m), m, a) == a, end
// to end on the emulated machine across schemes.
func TestPackUnpackRoundTripOnMachine(t *testing.T) {
	l := dist.MustLayout(dist.Dim{N: 12, P: 2, W: 3}, dist.Dim{N: 10, P: 5, W: 1})
	gen := mask.NewRandom(0.6, 41, 12, 10)
	global := make([]int, l.GlobalSize())
	for i := range global {
		global[i] = 3*i + 1
	}
	locals := dist.Scatter(l, global)

	for _, packScheme := range []Scheme{SchemeSSS, SchemeCMS} {
		for _, unpackScheme := range []Scheme{SchemeSSS, SchemeCSS} {
			t.Run(fmt.Sprintf("%v-%v", packScheme, unpackScheme), func(t *testing.T) {
				m := sim.MustNew(sim.Config{Procs: l.Procs()})
				out := make([][]int, l.Procs())
				err := m.Run(func(p *sim.Proc) {
					lm := mask.FillLocal(l, p.Rank(), gen)
					res, err := Pack(p, l, locals[p.Rank()], lm, Options{Scheme: packScheme})
					if err != nil {
						panic(err)
					}
					back, err := Unpack(p, l, res.V, res.Vec.Size, lm, locals[p.Rank()], Options{Scheme: unpackScheme})
					if err != nil {
						panic(err)
					}
					out[p.Rank()] = back.A
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := dist.Gather(l, out); !reflect.DeepEqual(got, global) {
					t.Fatalf("round trip lost data:\n got %v\nwant %v", got, global)
				}
			})
		}
	}
}

// TestPackStringElements: the generic implementation must work for
// non-numeric element types (strings count one word each here).
func TestPackStringElements(t *testing.T) {
	l := dist.MustLayout(dist.Dim{N: 16, P: 4, W: 2})
	global := make([]string, 16)
	gmask := make([]bool, 16)
	for i := range global {
		global[i] = fmt.Sprintf("s%02d", i)
		gmask[i] = i%3 != 1
	}
	want := seq.Pack(global, gmask)
	locals := dist.Scatter(l, global)
	maskLocals := dist.Scatter(l, gmask)

	m := sim.MustNew(sim.Config{Procs: 4})
	results := make([]*Result[string], 4)
	err := m.Run(func(p *sim.Proc) {
		res, err := Pack(p, l, locals[p.Rank()], maskLocals[p.Rank()], Options{Scheme: SchemeCMS})
		if err != nil {
			panic(err)
		}
		results[p.Rank()] = res
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(want))
	for rank, res := range results {
		for i, v := range res.V {
			got[res.Vec.ToGlobal(rank, i)] = v
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("string pack mismatch: %v vs %v", got, want)
	}
}

// TestSoakRandomConfigs is a longer randomized soak across layouts,
// schemes, vector distributions, pads and both operations; skipped in
// -short mode.
func TestSoakRandomConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(20260704))
	pick := func(xs []int) int { return xs[rng.Intn(len(xs))] }
	for iter := 0; iter < 150; iter++ {
		d0 := dist.Dim{P: pick([]int{1, 2, 3, 4}), W: pick([]int{1, 2, 3, 4})}
		d0.N = d0.P * d0.W * pick([]int{1, 2, 3, 4})
		dims := []dist.Dim{d0}
		if rng.Intn(2) == 0 {
			d1 := dist.Dim{P: pick([]int{1, 2, 3}), W: pick([]int{1, 2})}
			d1.N = d1.P * d1.W * pick([]int{1, 2, 3})
			dims = append(dims, d1)
		}
		l, err := dist.NewLayout(dims...)
		if err != nil {
			t.Fatalf("iter %d: bad layout: %v", iter, err)
		}
		shape := make([]int, l.Rank())
		for i, d := range l.Dims {
			shape[i] = d.N
		}
		density := float64(rng.Intn(101)) / 100
		gen := mask.NewRandom(density, rng.Uint64(), shape...)
		opt := Options{
			Scheme:         []Scheme{SchemeSSS, SchemeCSS, SchemeCMS}[rng.Intn(3)],
			VectorW:        pick([]int{0, 1, 2, 3}),
			WholeSliceScan: rng.Intn(2) == 0,
		}
		if rng.Intn(3) == 0 {
			opt.A2A.SkipEmpty = true
		}
		if rng.Intn(4) == 0 {
			opt.A2A.Naive = true
		}
		runPack(t, l, gen, opt)
		if opt.Scheme != SchemeCMS {
			runUnpackW(t, l, gen, rng.Intn(5), opt)
		}
	}
}

// TestPackPropertyMultiWordSlices draws layouts whose dimension-0
// blocks hold 63, 64, 65 or 130 elements — slices that straddle or
// span 64-element mask words — across every scheme, both slice-scan
// policies and small vector blocks, and compares PACK and UNPACK with
// the sequential oracle.
func TestPackPropertyMultiWordSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for iter := 0; iter < 40; iter++ {
		w := []int{63, 64, 65, 130}[rng.Intn(4)]
		d0 := dist.Dim{P: 1 + rng.Intn(3), W: w}
		d0.N = d0.P * d0.W * (1 + rng.Intn(2))
		dims := []dist.Dim{d0}
		if rng.Intn(2) == 0 {
			d1 := dist.Dim{P: 1 + rng.Intn(2), W: 1 + rng.Intn(2)}
			d1.N = d1.P * d1.W * (1 + rng.Intn(2))
			dims = append(dims, d1)
		}
		l := dist.MustLayout(dims...)
		shape := make([]int, l.Rank())
		for i, d := range l.Dims {
			shape[i] = d.N
		}
		gen := mask.NewRandom(rng.Float64(), rng.Uint64(), shape...)
		opt := Options{
			Scheme:         []Scheme{SchemeSSS, SchemeCSS, SchemeCMS}[rng.Intn(3)],
			VectorW:        []int{0, 1, 7}[rng.Intn(3)],
			WholeSliceScan: rng.Intn(2) == 0,
		}
		runPack(t, l, gen, opt)
		if opt.Scheme != SchemeCMS {
			runUnpackW(t, l, gen, rng.Intn(5), opt)
		}
	}
}
