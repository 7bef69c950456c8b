package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/pack"
	"packunpack/internal/redist"
	"packunpack/internal/seq"
	"packunpack/internal/sim"
	"packunpack/internal/transport"
)

// paper-sim runs the paper's evaluation grid on the emulator: 1-D and
// 2-D arrays on P=16 and P=64, block sizes from cyclic to block, the
// random 50% and the deterministic LT mask, PACK under SSS/CSS/CMS,
// UNPACK under SSS/CSS, and the Red.1/Red.2 pipelines on cyclic input.
//
// Virtual makespan, messages, words and operations depend only on the
// layout, mask and options, never on the data, so the masks are fixed
// (goldenMaskSeed) and golden.json records each run's values as the
// emulator computed them when the benchmark was written; a change that
// means to alter the cost model rewrites it with
// --record-golden perfbench/golden.json. The run's --seed picks
// the data and the order of the runs within each pass.

//go:embed golden.json
var goldenJSON []byte

const goldenMaskSeed = 1

// virt is one run's cost-model outcome.
type virt struct {
	MakespanUS float64 `json:"virtual_us"`
	Msgs       int64   `json:"msgs"`
	Words      int64   `json:"words"`
	Ops        int64   `json:"ops"`
}

// gridInput is one global problem: a shape's data and field arrays
// under one mask, with the expected PACK and UNPACK outputs.
type gridInput struct {
	a, f        []int
	m           []bool
	want, wantU []int
}

type gridOp int

const (
	opPack gridOp = iota
	opUnpack
	opRed1
	opRed2
)

// gridRun is one point of the grid with its per-rank inputs.
type gridRun struct {
	key    string
	op     gridOp
	scheme pack.Scheme
	l      *dist.Layout
	m      *sim.Machine
	a      []int // global data
	mask   []bool
	want   []int // expected packed vector
	wantU  []int // expected unpacked array
	aLoc   [][]int
	fLoc   [][]int
	mLoc   [][]bool
	vLoc   [][]int
}

type gridLayout struct {
	name string
	dims []dist.Dim
}

// paperLayouts is the grid's layouts, each with its array shape.
func paperLayouts() []gridLayout {
	var out []gridLayout
	oneD := func(n, p int, ws ...int) {
		for _, w := range ws {
			out = append(out, gridLayout{fmt.Sprintf("1-D N=%d P=%d W=%d", n, p, w), []dist.Dim{{N: n, P: p, W: w}}})
		}
	}
	twoD := func(n, pg int, ws ...int) {
		for _, w := range ws {
			d := dist.Dim{N: n, P: pg, W: w}
			out = append(out, gridLayout{fmt.Sprintf("2-D %dx%d P=%dx%d W=%d", n, n, pg, pg, w), []dist.Dim{d, d}})
		}
	}
	oneD(16384, 16, 1, 8, 64, 1024)
	oneD(65536, 64, 1, 32, 1024)
	twoD(128, 4, 1, 4, 32)
	twoD(256, 8, 1, 32)
	return out
}

// paperGrid builds every run of one pass; data come from seed, masks
// from goldenMaskSeed. tr times the mask module's fills.
func paperGrid(seed uint64, tr *tracer) ([]*gridRun, error) {
	machines := make(map[int]*sim.Machine)
	inputs := make(map[string]*gridInput)
	var runs []*gridRun
	for _, gl := range paperLayouts() {
		l, err := dist.NewLayout(gl.dims...)
		if err != nil {
			return nil, err
		}
		procs := l.Procs()
		if machines[procs] == nil {
			m, err := sim.New(sim.Config{Procs: procs, Params: sim.CM5Params(), Sched: sim.SchedCooperative})
			if err != nil {
				return nil, err
			}
			machines[procs] = m
		}
		shape := shapeOf(l)
		for _, mk := range []struct {
			name string
			gen  mask.Gen
		}{
			{"rand50", mask.NewRandom(0.5, goldenMaskSeed, shape...)},
			{"LT", ltMask(shape)},
		} {
			inKey := fmt.Sprint(shape, mk.name)
			in := inputs[inKey]
			if in == nil {
				in = newGridInput(l, mk.gen, derive(seed, 10, uint64(len(inputs))))
				inputs[inKey] = in
			}
			mLoc := make([][]bool, procs)
			for r := range mLoc {
				tr.timed(0, 0, "mask.fill", func() { mLoc[r] = mask.FillLocalInto(nil, l, r, mk.gen) })
			}
			vec, err := dist.NewVectorDist(len(in.want), procs, 0)
			if err != nil {
				return nil, err
			}
			vLoc := make([][]int, procs)
			for r := range vLoc {
				vLoc[r] = make([]int, vec.LocalLen(r))
				for i := range vLoc[r] {
					vLoc[r][i] = in.want[vec.ToGlobal(r, i)]
				}
			}
			base := gridRun{l: l, m: machines[procs], a: in.a, mask: in.m, want: in.want, wantU: in.wantU,
				aLoc: dist.Scatter(l, in.a), fLoc: dist.Scatter(l, in.f), mLoc: mLoc, vLoc: vLoc}
			add := func(op gridOp, scheme pack.Scheme, label string) {
				r := base
				r.op, r.scheme = op, scheme
				r.key = fmt.Sprintf("%s %s / %s", label, gl.name, mk.name)
				runs = append(runs, &r)
			}
			for _, sc := range []pack.Scheme{pack.SchemeSSS, pack.SchemeCSS, pack.SchemeCMS} {
				add(opPack, sc, "PACK "+sc.String())
			}
			for _, sc := range []pack.Scheme{pack.SchemeSSS, pack.SchemeCSS} {
				add(opUnpack, sc, "UNPACK "+sc.String())
			}
			if gl.dims[0].W == 1 {
				add(opRed1, pack.SchemeCMS, "Red.1")
				add(opRed2, pack.SchemeCMS, "Red.2")
			}
		}
	}
	return runs, nil
}

// ltMask is the paper's deterministic mask: the first half in 1-D,
// the strict upper triangle in 2-D.
func ltMask(shape []int) mask.Gen {
	if len(shape) == 1 {
		return mask.FirstHalf{N: shape[0]}
	}
	return mask.UpperTriangle{}
}

func newGridInput(l *dist.Layout, gen mask.Gen, seed uint64) *gridInput {
	n := l.GlobalSize()
	in := &gridInput{a: make([]int, n), f: make([]int, n), m: mask.FillGlobal(l, gen)}
	fillInts(in.a, derive(seed, 1))
	fillInts(in.f, derive(seed, 2))
	in.want = seq.Pack(in.a, in.m)
	in.wantU = seq.Unpack(in.want, in.m, in.f)
	return in
}

// exec runs r once on its machine and returns the wall time of the
// machine run and the outputs: the packed vector's portions (PACK,
// Red.1, Red.2) or the unpacked array's (UNPACK).
func (r *gridRun) exec() (time.Duration, []*pack.Result[int], [][]int, error) {
	procs := r.l.Procs()
	packed := make([]*pack.Result[int], procs)
	unpacked := make([][]int, procs)
	opt := pack.Options{Scheme: r.scheme}
	start := time.Now()
	err := r.m.Run(func(p *sim.Proc) {
		rank := p.Rank()
		var res *pack.Result[int]
		var err error
		switch r.op {
		case opPack:
			res, err = pack.Pack(p, r.l, r.aLoc[rank], r.mLoc[rank], opt)
		case opRed1:
			res, err = redist.PackRedistSelected(p, r.l, r.aLoc[rank], r.mLoc[rank], opt)
		case opRed2:
			res, err = redist.PackRedistWhole(p, r.l, r.aLoc[rank], r.mLoc[rank], opt)
		case opUnpack:
			var u *pack.UnpackResult[int]
			u, err = pack.Unpack(p, r.l, r.vLoc[rank], len(r.want), r.mLoc[rank], r.fLoc[rank], opt)
			if err == nil {
				unpacked[rank] = u.A
			}
		}
		if err != nil {
			panic(err)
		}
		packed[rank] = res
	})
	return time.Since(start), packed, unpacked, err
}

// measure runs r once, records its span and checks its outputs and
// virtual figures; it returns the machine run's wall time.
func (r *gridRun) measure(golden map[string]virt, tr *tracer, req int64) (time.Duration, error) {
	d, packed, unpacked, err := r.exec()
	if err != nil {
		return 0, err
	}
	end := time.Now()
	name := "sim.Run" // a PACK or UNPACK run
	switch r.op {
	case opRed1:
		name = "redist.PackRedistSelected"
	case opRed2:
		name = "redist.PackRedistWhole"
	}
	tr.record(0, 0, req, name, end.Add(-d), end)
	got := virtOf(r.m)
	if want, ok := golden[r.key]; !ok || got != want {
		return 0, fmt.Errorf("virtual %+v, recorded %+v", got, want)
	}
	if err := r.check(packed, unpacked); err != nil {
		return 0, err
	}
	return d, nil
}

// check compares a run's outputs with internal/seq's.
func (r *gridRun) check(packed []*pack.Result[int], unpacked [][]int) error {
	if r.op == opUnpack {
		for pos, want := range r.wantU {
			rank, loc := r.l.GlobalPosOwner(pos)
			if unpacked[rank][loc] != want {
				return fmt.Errorf("%s: element %d = %d, want %d", r.key, pos, unpacked[rank][loc], want)
			}
		}
		return nil
	}
	if size := packed[0].Ranking.Size; size != len(r.want) {
		return fmt.Errorf("%s: size %d, want %d", r.key, size, len(r.want))
	}
	for rank, res := range packed {
		for i, v := range res.V {
			if g := res.Vec.ToGlobal(rank, i); r.want[g] != v {
				return fmt.Errorf("%s: element %d = %d, want %d", r.key, g, v, r.want[g])
			}
		}
	}
	return nil
}

func (v *virt) add(o virt) {
	v.MakespanUS += o.MakespanUS
	v.Msgs += o.Msgs
	v.Words += o.Words
	v.Ops += o.Ops
}

// virtOf sums the machine's cost-model figures after a run.
func virtOf(m *sim.Machine) virt {
	v := virt{MakespanUS: m.MaxClock()}
	for _, st := range m.Stats() {
		v.Msgs += st.MsgsSent
		v.Words += st.WordsSent
		v.Ops += st.Ops
	}
	return v
}

func loadGolden() (map[string]virt, error) {
	var g map[string]virt
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// recordGolden runs one pass of the grid and writes every run's
// virtual figures to path (regenerates golden.json).
func recordGolden(path string) error {
	runs, err := paperGrid(0, nil)
	if err != nil {
		return err
	}
	g := make(map[string]virt, len(runs))
	for _, r := range runs {
		_, packed, unpacked, err := r.exec()
		if err != nil {
			return fmt.Errorf("%s: %w", r.key, err)
		}
		if err := r.check(packed, unpacked); err != nil {
			return err
		}
		g[r.key] = virtOf(r.m)
	}
	out, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// paperPass is one pass's measurements.
type paperPass struct {
	packS, unpackS, basePackS series
	okS                       series        // machine-run wall of every run that passed, ms
	wall                      time.Duration // sum of the runs' machine-run walls
	total                     virt
}

// paperPassRun runs every grid run once in a seeded order, checking
// outputs and virtual figures; failures go to res and count as taking
// miss.
// base is the COST baseline's output buffer, sized for the largest
// array of the grid.
func paperPassRun(runs []*gridRun, golden map[string]virt, order *rng, res *result, tr *tracer, base []int, miss time.Duration) paperPass {
	var pp paperPass
	for _, idx := range order.perm(len(runs)) {
		r := runs[idx]
		res.attempted++
		d, err := r.measure(golden, tr, int64(idx))
		if err != nil {
			res.fail("%s: %v", r.key, err)
			// A failed run misses any latency limit.
			d = miss
		} else {
			pp.okS.addDur(d, time.Millisecond)
			pp.wall += d
			pp.total.add(virtOf(r.m))
		}
		switch r.op {
		case opPack:
			pp.packS.addDur(d, time.Millisecond)
			if err == nil {
				d := timeBaseline(tr, 0, 0, "baseline.pack", func() { basePack(base, r.a, r.mask) })
				pp.basePackS.addDur(d, time.Millisecond)
			}
		case opUnpack:
			pp.unpackS.addDur(d, time.Millisecond)
		}
	}
	return pp
}

func runPaper(cfg config) (*result, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	res := newResult()
	tr := cfg.tr
	traced := tr.enabled()
	miss := time.Duration(cfg.seconds * float64(time.Second))
	var runs []*gridRun
	var base []int
	setups, err := timeSetups(func() (err error) {
		if runs, err = paperGrid(cfg.seed, tr); err != nil {
			return err
		}
		maxN := 0
		for _, r := range runs {
			maxN = max(maxN, len(r.a))
		}
		base = make([]int, maxN)
		// One warm-up pass, untraced; its failures count like any other.
		tr.on = false
		paperPassRun(runs, golden, &rng{s: derive(cfg.seed, 20)}, res, tr, base, miss)
		tr.on = traced
		return nil
	})
	if err != nil {
		return nil, err
	}

	var packS, unpackS, okS, basePackS series
	var tracedPass, plainPass series
	var total virt
	order := rng{s: derive(cfg.seed, 21)}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for pass := 0; time.Now().Before(deadline); pass++ {
		// In the traced run every other pass records spans and probes
		// each layout's layers; the passes in between give the overhead.
		tr.on = traced && pass%2 == 0
		pp := paperPassRun(runs, golden, &order, res, tr, base, miss)
		packS = append(packS, pp.packS...)
		unpackS = append(unpackS, pp.unpackS...)
		basePackS = append(basePackS, pp.basePackS...)
		okS = append(okS, pp.okS...)
		total = pp.total
		if traced {
			if tr.on {
				tracedPass.addDur(pp.wall, time.Second)
				if err := probeGrid(runs, tr, int64(pass)); err != nil {
					return nil, err
				}
			} else {
				plainPass.addDur(pp.wall, time.Second)
			}
		}
	}
	tr.on = traced
	heap := heapMB()
	runtime.KeepAlive(runs)

	setLatencies(res, packS, unpackS, basePackS)
	res.set("ops_per_s", okS.perBlock(rateOf).max(), len(okS))
	res.set("heap_mb", heap, 1)
	res.set("setup_s", setups.median(), len(setups))
	if traced {
		setLayerQuantiles(res, tr)
		sims := tr.durations("sim.Run", time.Millisecond)
		res.set("sim.run_ms_p50", sims.median(), len(sims))
		red1 := tr.durations("redist.PackRedistSelected", time.Millisecond)
		res.set("redist.red1_ms_p50", red1.median(), len(red1))
		red2 := tr.durations("redist.PackRedistWhole", time.Millisecond)
		res.set("redist.red2_ms_p50", red2.median(), len(red2))
		res.set("sim.virtual_ms_total", total.MakespanUS/1000, len(runs))
		res.set("sim.msgs_total", float64(total.Msgs), len(runs))
		res.set("sim.words_total", float64(total.Words), len(runs))
		res.set("sim.ops_total", float64(total.Ops), len(runs))
		res.set("trace.overhead_frac", overheadFrac(tracedPass, plainPass), len(tracedPass))
	}
	return res, nil
}

// probeGrid probes the layers once per layout of the grid, on the
// layout's random-mask PACK inputs.
func probeGrid(runs []*gridRun, tr *tracer, req int64) error {
	for _, r := range runs {
		if r.op != opPack || r.scheme != pack.SchemeCMS || !strings.HasSuffix(r.key, "/ rand50") {
			continue
		}
		err := probeLayers(&transport.SimMachine{M: r.m}, tr, probeInput{l: r.l, global: r.a, locals: r.aLoc,
			maskLocals: r.mLoc, opt: pack.Options{Scheme: pack.SchemeCMS}, req: req})
		if err != nil {
			return fmt.Errorf("%s: %w", r.key, err)
		}
	}
	return nil
}
