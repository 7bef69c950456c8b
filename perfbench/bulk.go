package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/pack"
	"packunpack/internal/seq"
	"packunpack/internal/sim"
	"packunpack/internal/transport"
)

// bulk-fresh: N=2^18 elements, CYCLIC(16) over P=2, CMS PACK then the
// CSS UNPACK round trip, a fresh 50% mask per call, no plan cache.
const (
	bulkN       = 1 << 18
	bulkW       = 16
	bulkProcs   = 2
	bulkDensity = 0.5
	bulkWarmup  = 3 // calls made during set-up, untimed
)

// bulkState is everything a bulk-fresh call reads or writes, allocated
// once in set-up.
type bulkState struct {
	l        *dist.Layout
	m        transport.Machine
	owner    [][2]int // global position -> (rank, local offset)
	a, f     []int    // global data and field arrays
	aLoc     [][]int  // per-rank portions of a and f
	fLoc     [][]int
	mask     []bool // current call's global mask and its portions
	maskLoc  [][]bool
	packed   []*pack.Result[int]
	unpacked [][]int
	basePk   []int // baseline outputs; baseVec has one spare slot
	baseVec  []int
	baseUn   []int
}

func setupBulk(seed uint64, tr *tracer) (*bulkState, error) {
	l, err := dist.NewLayout(dist.Dim{N: bulkN, P: bulkProcs, W: bulkW})
	if err != nil {
		return nil, err
	}
	m, err := transport.NewReal(transport.RealConfig{Procs: bulkProcs, Params: sim.CM5Params()})
	if err != nil {
		return nil, err
	}
	s := &bulkState{
		l: l, m: m,
		owner:    make([][2]int, bulkN),
		a:        make([]int, bulkN),
		f:        make([]int, bulkN),
		mask:     make([]bool, bulkN),
		packed:   make([]*pack.Result[int], bulkProcs),
		unpacked: make([][]int, bulkProcs),
		basePk:   make([]int, bulkN),
		baseVec:  make([]int, bulkN+1),
		baseUn:   make([]int, bulkN),
	}
	for pos := range s.owner {
		r, loc := l.GlobalPosOwner(pos)
		s.owner[pos] = [2]int{r, loc}
	}
	fillInts(s.a, derive(seed, 1))
	fillInts(s.f, derive(seed, 2))
	s.aLoc = dist.Scatter(l, s.a)
	s.fLoc = dist.Scatter(l, s.f)
	s.maskLoc = make([][]bool, bulkProcs)
	warm := mask.NewRandom(bulkDensity, derive(seed, 3), bulkN)
	for r := range s.maskLoc {
		tr.timed(0, 0, "mask.fill", func() {
			s.maskLoc[r] = mask.FillLocalInto(nil, l, r, warm)
		})
	}
	// The warm-up calls run on the mask module's portions; the global
	// mask is only needed to check outputs, which set-up skips.
	for i := 0; i < bulkWarmup; i++ {
		if _, err := s.pack(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if _, err := s.unpack(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// newMask draws call i's fresh mask and splits it over the ranks.
func (s *bulkState) newMask(seed uint64, i int) {
	fillMask(s.mask, derive(seed, 4, uint64(i)), bulkDensity)
	for pos, o := range s.owner {
		s.maskLoc[o[0]][o[1]] = s.mask[pos]
	}
}

// pack runs the distributed PACK as one machine run and returns its
// wall time.
func (s *bulkState) pack() (time.Duration, error) {
	start := time.Now()
	err := s.m.Run(func(ep transport.Endpoint) {
		r := ep.Rank()
		res, err := pack.Pack(ep, s.l, s.aLoc[r], s.maskLoc[r], pack.Options{Scheme: pack.SchemeCMS})
		if err != nil {
			panic(err)
		}
		s.packed[r] = res
	})
	if err != nil {
		return 0, fmt.Errorf("pack: %w", err)
	}
	return time.Since(start), nil
}

// unpack runs the distributed UNPACK of the last PACK's result vector
// as one machine run and returns its wall time.
func (s *bulkState) unpack() (time.Duration, error) {
	size := s.packed[0].Ranking.Size
	start := time.Now()
	err := s.m.Run(func(ep transport.Endpoint) {
		r := ep.Rank()
		res, err := pack.Unpack(ep, s.l, s.packed[r].V, size, s.maskLoc[r], s.fLoc[r], pack.Options{Scheme: pack.SchemeCSS})
		if err != nil {
			panic(err)
		}
		s.unpacked[r] = res.A
	})
	if err != nil {
		return 0, fmt.Errorf("unpack: %w", err)
	}
	return time.Since(start), nil
}

// check compares the call's outputs with internal/seq byte for byte
// and returns the expected packed vector.
func (s *bulkState) check(tr *tracer, parent, req int64) (want []int, err error) {
	tr.timed(parent, req, "seq.Pack", func() { want = seq.Pack(s.a, s.mask) })
	var wantU []int
	tr.timed(parent, req, "seq.Unpack", func() { wantU = seq.Unpack(want, s.mask, s.f) })
	if got := s.packed[0].Ranking.Size; got != len(want) {
		return nil, fmt.Errorf("pack size %d, want %d", got, len(want))
	}
	for r, res := range s.packed {
		for i, v := range res.V {
			if g := res.Vec.ToGlobal(r, i); want[g] != v {
				return nil, fmt.Errorf("pack element %d = %d, want %d", g, v, want[g])
			}
		}
	}
	for pos, o := range s.owner {
		if got := s.unpacked[o[0]][o[1]]; got != wantU[pos] {
			return nil, fmt.Errorf("unpack element %d = %d, want %d", pos, got, wantU[pos])
		}
	}
	return want, nil
}

// baseline times the single-thread loops on the call's inputs.
func (s *bulkState) baseline(tr *tracer, parent, req int64, want []int) (packT, unpackT time.Duration, err error) {
	var k int
	packT = timeBaseline(tr, parent, req, "baseline.pack", func() { k = basePack(s.basePk, s.a, s.mask) })
	copy(s.baseVec, want)
	unpackT = timeBaseline(tr, parent, req, "baseline.unpack", func() { baseUnpack(s.baseUn, s.baseVec, s.mask, s.f) })
	if !slices.Equal(s.basePk[:k], want) {
		return 0, 0, fmt.Errorf("baseline pack disagrees with internal/seq")
	}
	return packT, unpackT, nil
}

func runBulk(cfg config) (*result, error) {
	res := newResult()
	var s *bulkState
	setups, err := timeSetups(func() (err error) {
		s, err = setupBulk(cfg.seed, cfg.tr)
		return err
	})
	if err != nil {
		return nil, err
	}

	var packS, unpackS, opS, basePackS series
	var tracedPack, plainPack series // traced run: pack time with spans on / off
	var msgs, words, allocKB, mallocs series
	var gcs uint64
	tr := cfg.tr
	traced := tr.enabled()
	// A failed or wrong operation misses any latency limit: it counts
	// as taking the whole run.
	miss := cfg.seconds * 1000
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		// In the traced run every other call records spans and probes
		// the layers; the calls in between measure the same operation
		// untraced, which gives the tracing overhead.
		tr.on = traced && i%2 == 0
		s.newMask(cfg.seed, i)
		req := int64(i)
		root := tr.reserve()
		callStart := time.Now()
		var meter allocMeter
		if tr.on {
			meter.start()
		}
		pT, err := s.pack()
		res.attempted++
		if err != nil {
			res.fail("call %d: %v", i, err)
			packS.add(miss)
			continue
		}
		if tr.on {
			b, n, g := meter.stop()
			allocKB.add(float64(b) / 1024)
			mallocs.add(float64(n))
			gcs += g
			var ms, ws int64
			for _, st := range s.m.Stats() {
				ms += st.MsgsSent
				ws += st.WordsSent
			}
			msgs.add(float64(ms))
			words.add(float64(ws))
		}
		uStart := time.Now()
		uT, err := s.unpack()
		res.attempted++
		if err != nil {
			res.fail("call %d: %v", i, err)
			packS.addDur(pT, time.Millisecond)
			unpackS.add(miss)
			continue
		}
		tr.record(0, root, req, "pack.Pack", callStart, callStart.Add(pT))
		tr.record(0, root, req, "pack.Unpack", uStart, uStart.Add(uT))
		want, err := s.check(tr, root, req)
		if err != nil {
			// One wrong output fails both operations of the call.
			res.fail("call %d: %v", i, err)
			res.failed++
			packS.add(miss)
			unpackS.add(miss)
			continue
		}
		packS.addDur(pT, time.Millisecond)
		unpackS.addDur(uT, time.Millisecond)
		opS.addDur(pT, time.Millisecond)
		opS.addDur(uT, time.Millisecond)
		if traced {
			if tr.on {
				tracedPack.addDur(pT, time.Millisecond)
			} else {
				plainPack.addDur(pT, time.Millisecond)
			}
		}
		bT, _, err := s.baseline(tr, root, req, want)
		if err != nil {
			return nil, err
		}
		basePackS.addDur(bT, time.Millisecond)
		if tr.on {
			err := probeLayers(s.m, tr, probeInput{l: s.l, global: s.a, locals: s.aLoc, maskLocals: s.maskLoc,
				opt: pack.Options{Scheme: pack.SchemeCMS}, parent: root, req: req})
			if err != nil {
				return nil, err
			}
		}
		tr.record(root, 0, req, "bulk.call", callStart, time.Now())
	}
	tr.on = traced
	heap := heapMB()
	runtime.KeepAlive(s)

	setLatencies(res, packS, unpackS, basePackS)
	res.set("ops_per_s", opS.perBlock(rateOf).max(), len(opS))
	res.set("heap_mb", heap, 1)
	res.set("setup_s", setups.median(), len(setups))
	if traced {
		setLayerQuantiles(res, tr)
		res.set("transport.msgs_per_call", msgs.median(), len(msgs))
		res.set("transport.words_per_call", words.median(), len(words))
		res.set("pack.alloc_kb_per_call", allocKB.median(), len(allocKB))
		res.set("pack.mallocs_per_call", mallocs.median(), len(mallocs))
		res.set("pack.gc_cycles", float64(gcs), len(allocKB))
		res.set("trace.overhead_frac", overheadFrac(tracedPack, plainPack), len(tracedPack))
	}
	return res, nil
}
