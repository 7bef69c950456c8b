package pack

import (
	"fmt"
	"slices"

	"packunpack/internal/comm"
	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/ranking"
	"packunpack/internal/transport"
)

// UnpackResult is the outcome of Unpack on one processor.
type UnpackResult[T any] struct {
	// A is this processor's local portion of the result array, in
	// local row-major order, conformable with the mask.
	A []T
	// Ranking is the ranking-stage result.
	Ranking *ranking.Result
}

// reqSeg is a compact request: "send me the Count vector elements
// starting at global rank Base" (two machine words). The simple
// storage scheme sends one single-element segment per selected element
// (its effective request size is one word, the rank; we charge one
// word accordingly).
type reqSeg struct {
	Base  int
	Count int
}

// Unpack scatters the distributed input vector into a new array shaped
// like the mask: selected positions receive the vector elements in
// array element order, unselected positions receive the field array
// value. v is the processor's portion of the input vector, nPrime its
// global length (the paper's N', which must be at least the number of
// selected elements); m and field are the local mask and field arrays.
// The input vector is block-distributed by default and block-cyclic
// with Options.VectorW otherwise.
//
// UNPACK is a read operation: no processor knows in advance who needs
// its vector elements, so the redistribution stage uses two-phase
// communication — requests travel to the vector owners, data travels
// back (Section 4.2).
func Unpack[T any](p transport.Endpoint, l *dist.Layout, v []T, nPrime int, m []bool, field []T, opt Options) (*UnpackResult[T], error) {
	if len(m) != l.LocalSize() || len(field) != l.LocalSize() {
		return nil, fmt.Errorf("unpack: local mask %d / field %d, layout needs %d", len(m), len(field), l.LocalSize())
	}
	if opt.Scheme == SchemeCMS {
		return nil, fmt.Errorf("unpack: the compact message scheme applies to PACK only (requests are already compact under CSS)")
	}
	if opt.Plans != nil {
		return unpackPlanned(p, l, v, nPrime, m, field, opt)
	}
	vec, err := dist.NewVectorDist(nPrime, p.NProcs(), opt.VectorW)
	if err != nil {
		return nil, err
	}
	if want := vec.LocalLen(p.Rank()); len(v) != want {
		return nil, fmt.Errorf("unpack: local vector has %d elements, distribution of N'=%d gives %d", len(v), nPrime, want)
	}

	rnk, err := ranking.Rank(p, l, m, opt.rankingOptions(opt.Scheme == SchemeSSS))
	if err != nil {
		return nil, err
	}
	if rnk.Size > nPrime {
		return nil, fmt.Errorf("unpack: vector too short: N'=%d < Size=%d", nPrime, rnk.Size)
	}

	world := comm.World(p)
	n := p.NProcs()

	// ---- Compose requests, remembering how to place the replies. ----
	reqs := make([][]reqSeg, n)
	reqWords := make([]int, n)
	// For CSS, placement[i] lists (slice, skip, count) triples in
	// request order; for SSS, recIdx[i] lists record indices.
	type placeSeg struct{ slice, skip, count int }
	var placement [][]placeSeg
	var recIdx [][]int

	// The per-destination request/placement lists are pre-sized to
	// their exact final lengths from the ranking results (uncharged
	// host bookkeeping), so the append loops below never reallocate.
	carveReqs := func(counts []int) {
		total := 0
		for _, c := range counts {
			total += c
		}
		if total == 0 {
			return
		}
		arena := make([]reqSeg, total)
		off := 0
		for dst, c := range counts {
			if c == 0 {
				continue
			}
			reqs[dst] = arena[off : off : off+c]
			off += c
		}
	}

	if opt.Scheme == SchemeSSS {
		recIdx = make([][]int, n)
		counts := make([]int, n)
		own := ownerCursor{vec: vec}
		for _, rec := range rnk.Records {
			dst, _ := own.at(rnk.RankOf(rec))
			counts[dst]++
		}
		carveReqs(counts)
		total := 0
		for _, c := range counts {
			total += c
		}
		idxArena := make([]int, total)
		off := 0
		for dst, c := range counts {
			if c == 0 {
				continue
			}
			recIdx[dst] = idxArena[off : off : off+c]
			off += c
		}
		own = ownerCursor{vec: vec}
		for ri, rec := range rnk.Records {
			r := rnk.RankOf(rec)
			dst, _ := own.at(r)
			reqs[dst] = append(reqs[dst], reqSeg{Base: r, Count: 1})
			recIdx[dst] = append(recIdx[dst], ri)
			reqWords[dst]++ // one word per individual rank request
		}
		p.Charge(2 * len(rnk.Records)) // resolve rank, write request
	} else {
		placement = make([][]placeSeg, n)
		counts := make([]int, n)
		forEachRankRun(rnk, vec, func(dst, cnt int) { counts[dst]++ })
		carveReqs(counts)
		total := 0
		for _, c := range counts {
			total += c
		}
		placeArena := make([]placeSeg, total)
		off := 0
		for dst, c := range counts {
			if c == 0 {
				continue
			}
			placement[dst] = placeArena[off : off : off+c]
			off += c
		}
		own := ownerCursor{vec: vec}
		p.Charge(len(rnk.PSc)) // check the counter array, one read per slice
		for slice, cnt := range rnk.PSc {
			for r, taken := rnk.PSf[slice], 0; taken < cnt; {
				dst, end := own.at(r)
				c := min(end-r, cnt-taken)
				reqs[dst] = append(reqs[dst], reqSeg{Base: r, Count: c})
				placement[dst] = append(placement[dst], placeSeg{slice: slice, skip: taken, count: c})
				reqWords[dst] += 2
				p.Charge(2) // request segment header
				r += c
				taken += c
			}
		}
	}

	// ---- Stage 1: requests to the vector owners. ----
	prev := p.SetPhase(PhaseM2M)
	gotReqs := comm.AlltoallVW(world, reqs, reqWords, opt.A2A)
	p.SetPhase(prev)

	// ---- Serve: slice the local vector portion per request. ----
	replies := serveVecRequests(p, vec, v, gotReqs)

	// ---- Stage 2: data back to the requesters. ----
	prev = p.SetPhase(PhaseM2M)
	gotData := comm.AlltoallVOpt(world, replies, 1, opt.A2A)
	p.SetPhase(prev)

	// ---- Place: field values where the mask is false, vector data
	// where it is true. ----
	// Cloning the whole field is exact: the placement below overwrites
	// every selected position (placeIntoSlice panics otherwise). A
	// clone also skips zeroing the result before the copy.
	res := &UnpackResult[T]{A: slices.Clone(field), Ranking: rnk}
	p.Charge(l.LocalSize()) // the local field-array transfer pass
	if opt.Scheme == SchemeSSS {
		for src, data := range gotData {
			for i, ri := range recIdx[src] {
				rec := rnk.Records[ri]
				res.A[rec.Off] = data[i]
			}
			p.Charge(2 * len(data)) // read record, write datum
		}
	} else {
		w0 := l.Dims[0].W
		for src, data := range gotData {
			pos := 0
			for _, pl := range placement[src] {
				placeIntoSlice(p, rnk.Words, w0, res.A, pl.slice, pl.skip, data[pos:pos+pl.count], opt.WholeSliceScan)
				pos += pl.count
			}
		}
	}
	recordPackOp(p, "unpack", len(res.A))
	return res, nil
}

// serveVecRequests answers the owner side of UNPACK's two-phase
// exchange: for every received request segment, the owner slices the
// requested run out of its local vector portion. The planned and
// unplanned paths share this helper, so a served request costs the
// same (one header read plus one op per copied word) either way.
func serveVecRequests[T any](p transport.Endpoint, vec dist.VectorDist, v []T, gotReqs [][]reqSeg) [][]T {
	replies := make([][]T, len(gotReqs))
	for src, list := range gotReqs {
		if len(list) == 0 {
			continue
		}
		total := 0
		for _, rq := range list {
			total += rq.Count
		}
		out := make([]T, 0, total)
		own := ownerCursor{vec: vec}
		for _, rq := range list {
			p.Charge(1 + rq.Count) // read request, copy data
			lo := own.localIndex(rq.Base)
			out = append(out, v[lo:lo+rq.Count]...)
		}
		replies[src] = out
	}
	return replies
}

// placeIntoSlice scatters data into the slice's selected positions,
// skipping the first skip of them. The rescan mirrors the compact
// storage scheme's collectSlice: it is charged up to the last position
// written, the (skip+len(data))-th selected element.
func placeIntoSlice[T any](p transport.Endpoint, words []uint64, w0 int, a []T, slice, skip int, data []T, whole bool) {
	lo, hi := ranking.SliceBase(slice, w0), ranking.SliceBase(slice+1, w0)
	chargeRescan(p, words, lo, w0, skip+len(data), len(data), whole)
	written := 0
	it := mask.Ones(words, lo, hi)
	for off, ok := it.Next(); ok && written < len(data); off, ok = it.Next() {
		if skip > 0 {
			skip--
			continue
		}
		a[off] = data[written]
		written++
	}
	if written != len(data) {
		panic(fmt.Sprintf("pack: internal error: placed %d of %d elements in slice %d", written, len(data), slice))
	}
}
