package pack

// This file is the plan-compilation layer: the ranking stage and the
// run discovery of a PACK/UNPACK call are hoisted into a one-time
// compile, and repeat calls with the same (layout, mask, options)
// execute a compact schedule of bulk copy() moves instead. The design
// follows the iteration-plan idea of real halo-exchange and
// stream-compaction codes: the per-element work of the redistribution
// stage collapses into per-run work, and the dominant per-call ranking
// cost is paid once.
//
// A compiled Plan is a per-destination list of copyRun triples
// (srcOffset, baseRank, len): maximal groups of selected elements that
// are contiguous in local memory, consecutive in global rank, and
// owned by a single block of the result-vector distribution. Under
// every scheme the runs are the same — the simple storage scheme's
// length-1 per-record runs coalesce wherever records are adjacent, and
// the compact schemes' consecutive-rank segments (the runs
// forEachRankRun walks) split additionally at mask gaps, which a bulk
// copy from the source array requires anyway.
//
// The transparent cache path (Options.Plans) must keep a collective
// invariant: ranking is a collective, so every processor of the
// machine has to make the same hit-or-miss decision or the machine
// deadlocks. A single two-word prefix-reduction-sum settles both
// questions at once — see planLookup — so a warm call pays exactly one
// collective, like the ranking stage it replaces, instead of two.

import (
	"fmt"
	"slices"

	"packunpack/internal/comm"
	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/ranking"
	"packunpack/internal/transport"
)

// copyRun is one bulk move of a compiled plan: Len contiguous local
// elements starting at source offset Src whose global ranks are Base,
// Base+1, ..., all owned by one processor of the vector distribution.
type copyRun struct {
	Src  int
	Base int
	Len  int
}

// Plan is a compiled PACK/UNPACK schedule for one (layout, mask,
// options) configuration on one processor. Plans are immutable once
// compiled and carry no references to the arrays they were compiled
// from, so they may be cached, shared across machines, and executed
// any number of times. A plan compiled for PACK serves UNPACK too: the
// same runs describe where vector data lands in the local array.
type Plan struct {
	layout *dist.Layout
	opt    Options // Plans stripped; A2A/Scheme/VectorW live here
	nVec   int     // PACK VECTOR length / UNPACK N'; -1 means Size
	// gfp is the global (machine-wide) fingerprint the plan was
	// compiled under — the agreement token of planLookup. Zero for
	// plans compiled through the explicit CompilePlan API.
	gfp uint64
	vec dist.VectorDist
	// rnk is the trimmed ranking result (Size/PSf/PSc, never Records);
	// planned results share it across calls, so treat it as read-only.
	rnk  *ranking.Result
	runs [][]copyRun // per destination processor, in rank order
	// Precomputed message sizing, so execution never re-walks the runs
	// to size a send: segWords[dst] is the PACK segment word count
	// (2+Len per run), reqWords[dst] the UNPACK request word count
	// (2 per run).
	segWords  []int
	reqWords  []int
	totalRuns int
	totalData int
}

// Size returns the global number of selected elements the plan was
// compiled for.
func (pl *Plan) Size() int { return pl.rnk.Size }

// RunCount returns the number of copy runs of this processor's
// schedule (its share of the plan's bulk moves).
func (pl *Plan) RunCount() int { return pl.totalRuns }

// Vec returns the result/input vector distribution the plan targets.
func (pl *Plan) Vec() dist.VectorDist { return pl.vec }

// Ranking exposes the plan's trimmed ranking result (read-only).
func (pl *Plan) Ranking() *ranking.Result { return pl.rnk }

// mix64 is the splitmix64 finalizer — the same mixer the mask
// generators use — applied to fingerprint words.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// maskFingerprint hashes a local mask of n elements packed by
// mask.Words: each word feeds the splitmix64 mixer, and the length
// folds in last so masks that differ only by trailing false elements
// stay distinct.
func maskFingerprint(words []uint64, n int) uint64 {
	h := uint64(0x243f6a8885a308d3)
	for _, w := range words {
		h = mix64(h ^ w)
	}
	return mix64(h ^ uint64(n))
}

// planFingerprint is the local cache key: the hash of the packed local
// mask with the layout dimensions, scheme, vector block size and the
// requested vector length folded in. vecLen is -1 for plain PACK (the
// vector takes the selected count), the VECTOR length for PackVector,
// and N' for UNPACK.
func planFingerprint(l *dist.Layout, words []uint64, opt Options, vecLen int) uint64 {
	h := maskFingerprint(words, l.LocalSize())
	h = mix64(h ^ uint64(len(l.Dims)))
	for _, d := range l.Dims {
		h = mix64(h ^ uint64(d.N))
		h = mix64(h ^ uint64(d.P))
		h = mix64(h ^ uint64(d.W))
	}
	h = mix64(h ^ uint64(opt.Scheme))
	h = mix64(h ^ uint64(opt.VectorW))
	return mix64(h ^ uint64(int64(vecLen)))
}

// Rank salts keep the agreement sums order-sensitive: without them,
// two ranks swapping masks (or stored fingerprints) would leave the
// commutative sums unchanged.
const (
	fpRankSalt    = 0x5851f42d
	agreeRankSalt = 0x14057b7e
)

// planLookup is the collective cache negotiation of the transparent
// path, settled by ONE two-word prefix-reduction-sum (the same
// collective count as the ranking stage a warm call skips):
//
//	word 1 sums rank-salted hashes of the local mask fingerprints —
//	the global fingerprint gfp; any rank whose mask changed moves it.
//	word 2 sums rank-salted hashes of each rank's STORED global
//	fingerprint (the gfp recorded in its cached plan for this local
//	key; zero when it has none).
//
// Every rank then locally folds the sum word 2 WOULD have if every
// rank held a plan compiled under exactly this gfp. The hit/miss
// decision compares the two sums — both collective outputs — so all
// ranks decide identically by construction: a shared cache caught
// mid-fill by another machine's compile skews word 2 and the whole
// machine recompiles together, never deadlocking on a partial rank
// set. The decision is probabilistic the same way the fingerprint is
// (wrap-around sums of splitmix64 words); a collision that fakes
// unanimity against an empty slot panics rather than desyncing.
func planLookup(p transport.Endpoint, cache *PlanCache, localFP uint64, algo comm.PRSAlgorithm) (gfp uint64, pl *Plan) {
	pl = cache.get(localFP, p.Rank())
	var stored uint64
	if pl != nil {
		stored = pl.gfp
	}
	world := comm.World(p)
	prev := p.SetPhase(ranking.PhasePRS)
	contrib := []int{
		int(mix64(localFP ^ mix64(uint64(p.Rank())+fpRankSalt))),
		int(mix64(stored ^ mix64(uint64(p.Rank())+agreeRankSalt))),
	}
	_, tot := world.PrefixReductionSum(contrib, algo)
	gfp = uint64(tot[0])
	expected := 0
	for j := 0; j < p.NProcs(); j++ {
		expected += int(mix64(gfp ^ mix64(uint64(j)+agreeRankSalt)))
	}
	p.Charge(p.NProcs()) // fold the expected unanimity sum
	p.SetPhase(prev)
	if tot[1] != expected {
		cache.noteMiss()
		recordPlanLookup(p, false)
		return gfp, nil
	}
	if pl == nil {
		// Unanimity matched but this rank holds nothing: an agreement
		// collision (~2^-64). Executing would desync the machine.
		panic("pack: plan-cache agreement collision with empty local slot")
	}
	cache.noteHit()
	recordPlanLookup(p, true)
	return gfp, pl
}

// forEachCopyRun emits the maximal copy runs of the packed mask in
// local scan order: the runs of ranking.Result.ForEachRun (adjacent in
// local memory, consecutive in global rank), split where they cross a
// block of the vector distribution.
func forEachCopyRun(rnk *ranking.Result, w0 int, vec dist.VectorDist, fn func(dst int, run copyRun)) {
	own := ownerCursor{vec: vec}
	rnk.ForEachRun(w0, func(off, r, n int) {
		for n > 0 {
			dst, end := own.at(r)
			c := min(end-r, n)
			fn(dst, copyRun{Src: off, Base: r, Len: c})
			off += c
			r += c
			n -= c
		}
	})
}

// CompilePlan runs the ranking collective once and compiles the
// result into a bulk-copy plan for the calling processor. Every
// processor of the machine must call it with the same layout and
// options. The ranking stage always runs in its compact (counter-only)
// form — the compiler walks runs of the packed mask instead of
// materializing records — so compiling under the simple storage scheme
// costs the same as under the compact ones. The compile walk charges
// one mask rescan plus three words per emitted run (the run triple
// write).
func CompilePlan(p transport.Endpoint, l *dist.Layout, m []bool, opt Options) (*Plan, error) {
	if len(m) != l.LocalSize() {
		return nil, fmt.Errorf("pack: local mask %d, layout needs %d", len(m), l.LocalSize())
	}
	return compilePlan(p, l, mask.Words(m), opt, -1)
}

// compilePlan compiles a plan from the local mask packed by mask.Words.
func compilePlan(p transport.Endpoint, l *dist.Layout, words []uint64, opt Options, vecLen int) (*Plan, error) {
	switch opt.Scheme {
	case SchemeSSS, SchemeCSS, SchemeCMS:
	default:
		return nil, fmt.Errorf("pack: unknown scheme %v", opt.Scheme)
	}
	if done := planCompileTimer(p); done != nil {
		defer done()
	}
	rnk, err := ranking.RankWords(p, l, words, ranking.Options{
		PRS: opt.PRS, KeepRecords: false, SeparatePrefixReduce: opt.SeparatePrefixReduce,
	})
	if err != nil {
		return nil, err
	}
	size := rnk.Size
	if vecLen >= 0 {
		if size > vecLen {
			return nil, fmt.Errorf("pack: plan vector too short: %d < Size=%d", vecLen, size)
		}
		size = vecLen
	}
	vec, err := dist.NewVectorDist(size, p.NProcs(), opt.VectorW)
	if err != nil {
		return nil, err
	}
	n := p.NProcs()
	pl := &Plan{
		layout: l, opt: opt, nVec: vecLen, vec: vec, rnk: rnk,
		runs: make([][]copyRun, n), segWords: make([]int, n), reqWords: make([]int, n),
	}
	pl.opt.Plans = nil // a plan must not retain the cache that holds it
	w0 := l.Dims[0].W
	// Sizing pre-pass (uncharged host bookkeeping, the compose-arena
	// idiom): per-destination run counts carve one arena.
	counts := make([]int, n)
	forEachCopyRun(rnk, w0, vec, func(dst int, run copyRun) {
		counts[dst]++
		pl.totalRuns++
		pl.totalData += run.Len
		pl.segWords[dst] += 2 + run.Len
		pl.reqWords[dst] += 2
	})
	if pl.totalRuns > 0 {
		arena := make([]copyRun, pl.totalRuns)
		off := 0
		for dst, c := range counts {
			if c == 0 {
				continue
			}
			pl.runs[dst] = arena[off : off : off+c]
			off += c
		}
		forEachCopyRun(rnk, w0, vec, func(dst int, run copyRun) {
			pl.runs[dst] = append(pl.runs[dst], run)
		})
	}
	// A cached plan keeps only counters and runs: the packed mask stays
	// with the call that compiled it.
	rnk.Words = nil
	p.Charge(l.LocalSize() + 3*pl.totalRuns) // rescan reads + run triple writes
	return pl, nil
}

// composePlanSegs builds the per-destination segment messages of a
// planned PACK: one exact-sized segment arena, one data arena, and a
// bulk copy per run. Each run is charged as per-run setup (the two
// header words) plus one op per word moved — the bulk-copy charge of
// the cost model.
func composePlanSegs[T any](p transport.Endpoint, pl *Plan, a []T) [][]segMsg[T] {
	send := make([][]segMsg[T], p.NProcs())
	if pl.totalRuns == 0 {
		return send
	}
	segArena := make([]segMsg[T], pl.totalRuns)
	dataArena := make([]T, pl.totalData)
	sOff, dOff := 0, 0
	for dst, runs := range pl.runs {
		if len(runs) == 0 {
			continue
		}
		segs := segArena[sOff : sOff : sOff+len(runs)]
		sOff += len(runs)
		for _, run := range runs {
			data := dataArena[dOff : dOff+run.Len : dOff+run.Len]
			dOff += run.Len
			copy(data, a[run.Src:run.Src+run.Len])
			segs = append(segs, segMsg[T]{Base: run.Base, Data: data})
		}
		send[dst] = segs
	}
	// Per-run setup (the two header words) plus one op per word moved
	// — the bulk-copy charge of the cost model, batched per call.
	p.Charge(2*pl.totalRuns + pl.totalData)
	return send
}

// execPackPlan executes a compiled plan as PACK: bulk-copy compose,
// one many-to-many exchange of segment messages, bulk decode. pad is
// only consulted for plans compiled with a VECTOR length.
func execPackPlan[T any](p transport.Endpoint, pl *Plan, a []T, pad []T) (*Result[T], error) {
	if len(a) != pl.layout.LocalSize() {
		return nil, fmt.Errorf("pack: local array %d, plan's layout needs %d", len(a), pl.layout.LocalSize())
	}
	vec := pl.vec
	res := &Result[T]{Vec: vec, Ranking: pl.rnk, V: make([]T, vec.LocalLen(p.Rank()))}
	if pl.nVec >= 0 {
		if len(pad) != len(res.V) {
			return nil, fmt.Errorf("pack: local VECTOR portion has %d elements, distribution gives %d", len(pad), len(res.V))
		}
		copy(res.V, pad)
		p.Charge(len(pad)) // initialize the result from the pad vector
	}
	send := composePlanSegs(p, pl, a)
	prev := p.SetPhase(PhaseM2M)
	recv := comm.AlltoallVW(comm.World(p), send, pl.segWords, pl.opt.A2A)
	p.SetPhase(prev)
	ops := 0
	own := ownerCursor{vec: vec}
	for _, buf := range recv {
		for _, seg := range buf {
			ops += 2 + len(seg.Data)
			copy(res.V[own.localIndex(seg.Base):], seg.Data)
		}
	}
	p.Charge(ops) // per segment: header read + bulk word copy
	recordPackOp(p, "pack", len(res.V))
	return res, nil
}

// execUnpackPlan executes a compiled plan as UNPACK: the runs become
// run-length requests, the owners serve vector slices exactly as the
// unplanned path does, and the replies land with one bulk copy per run
// (the rescan of placeIntoSlice disappears — the run already pins the
// destination offsets).
func execUnpackPlan[T any](p transport.Endpoint, pl *Plan, v []T, field []T) (*UnpackResult[T], error) {
	if pl.opt.Scheme == SchemeCMS {
		return nil, fmt.Errorf("unpack: the compact message scheme applies to PACK only (requests are already compact under CSS)")
	}
	l := pl.layout
	if len(field) != l.LocalSize() {
		return nil, fmt.Errorf("unpack: local field %d, plan's layout needs %d", len(field), l.LocalSize())
	}
	vec := pl.vec
	if want := vec.LocalLen(p.Rank()); len(v) != want {
		return nil, fmt.Errorf("unpack: local vector has %d elements, plan's distribution gives %d", len(v), want)
	}
	n := p.NProcs()
	reqs := make([][]reqSeg, n)
	if pl.totalRuns > 0 {
		arena := make([]reqSeg, pl.totalRuns)
		off := 0
		for dst, runs := range pl.runs {
			if len(runs) == 0 {
				continue
			}
			rs := arena[off : off : off+len(runs)]
			off += len(runs)
			for _, run := range runs {
				rs = append(rs, reqSeg{Base: run.Base, Count: run.Len})
			}
			reqs[dst] = rs
		}
		p.Charge(2 * pl.totalRuns) // request segment headers
	}
	world := comm.World(p)
	prev := p.SetPhase(PhaseM2M)
	gotReqs := comm.AlltoallVW(world, reqs, pl.reqWords, pl.opt.A2A)
	p.SetPhase(prev)

	replies := serveVecRequests(p, vec, v, gotReqs)

	prev = p.SetPhase(PhaseM2M)
	gotData := comm.AlltoallVOpt(world, replies, 1, pl.opt.A2A)
	p.SetPhase(prev)

	res := &UnpackResult[T]{A: slices.Clone(field), Ranking: pl.rnk}
	p.Charge(l.LocalSize()) // the local field-array transfer pass
	for src, data := range gotData {
		pos := 0
		for _, run := range pl.runs[src] {
			copy(res.A[run.Src:run.Src+run.Len], data[pos:pos+run.Len])
			pos += run.Len
		}
	}
	// Per run: header read + bulk word copy, batched per call.
	p.Charge(2*pl.totalRuns + pl.totalData)
	recordPackOp(p, "unpack", len(res.A))
	return res, nil
}

// PlanPack executes a compiled plan as PACK (the explicit two-step
// API: compile once with CompilePlan, execute per call with no
// per-call ranking or cache negotiation at all).
func PlanPack[T any](p transport.Endpoint, pl *Plan, a []T) (*Result[T], error) {
	if pl.nVec >= 0 {
		return nil, fmt.Errorf("pack: plan was compiled with a VECTOR length; execute it through PackVector's transparent cache path")
	}
	return execPackPlan(p, pl, a, nil)
}

// PlanUnpack executes a compiled plan as UNPACK against the plan's
// vector distribution (N' = the plan's vector size).
func PlanUnpack[T any](p transport.Endpoint, pl *Plan, v []T, field []T) (*UnpackResult[T], error) {
	return execUnpackPlan(p, pl, v, field)
}

// packPlanned is the transparent cache path of packImpl: fingerprint,
// collective lookup, compile on a miss, bulk execute.
func packPlanned[T any](p transport.Endpoint, l *dist.Layout, a []T, m []bool, opt Options, pad []T, nVec int) (*Result[T], error) {
	words := mask.Words(m)
	fp := planFingerprint(l, words, opt, nVec)
	p.Charge(len(m)/64 + 1) // mask hashing, one op per 64-element word
	gfp, pl := planLookup(p, opt.Plans, fp, opt.PRS)
	if pl == nil {
		var err error
		pl, err = compilePlan(p, l, words, opt, nVec)
		if err != nil {
			return nil, err
		}
		pl.gfp = gfp
		opt.Plans.put(fp, p.Rank(), pl)
	}
	return execPackPlan(p, pl, a, pad)
}

// unpackPlanned is the transparent cache path of Unpack.
func unpackPlanned[T any](p transport.Endpoint, l *dist.Layout, v []T, nPrime int, m []bool, field []T, opt Options) (*UnpackResult[T], error) {
	words := mask.Words(m)
	fp := planFingerprint(l, words, opt, nPrime)
	p.Charge(len(m)/64 + 1) // mask hashing, one op per 64-element word
	gfp, pl := planLookup(p, opt.Plans, fp, opt.PRS)
	if pl == nil {
		var err error
		pl, err = compilePlan(p, l, words, opt, nPrime)
		if err != nil {
			return nil, err
		}
		pl.gfp = gfp
		opt.Plans.put(fp, p.Rank(), pl)
	}
	return execUnpackPlan(p, pl, v, field)
}
