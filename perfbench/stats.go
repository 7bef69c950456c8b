package main

import (
	"math"
	"sort"
	"time"
)

// series collects one timing or count per operation.
type series []float64

func (s *series) add(v float64) { *s = append(*s, v) }

// addDur records a duration in the given unit (time.Millisecond,
// time.Microsecond, ...).
func (s *series) addDur(d time.Duration, unit time.Duration) {
	*s = append(*s, float64(d)/float64(unit))
}

// quantile returns the q-quantile (0 <= q <= 1) by linear interpolation
// between closest ranks; 0 for an empty series.
func (s series) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append(series(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s series) median() float64 { return s.quantile(0.5) }

// tailQ is the percentile the benchmark reports as a series' tail: the
// 90th when at least ten samples lie beyond it, otherwise the highest
// percentile that still leaves ten samples beyond it (the median below
// twenty samples). A run holds one to ten thousand operations, so a
// 99th percentile would rest on ten to a hundred samples and swing with
// every host stall; the 90th rests on ten times as many.
func tailQ(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return math.Min(0.9, 1-10/float64(n))
}

func (s series) tail() float64 { return s.quantile(tailQ(len(s))) }

// statBlocks is how many consecutive blocks a run's samples are split
// into, and each end-to-end figure is the best block's: the lowest
// latency, the highest rate. A shared host's interference (CPU steal,
// a neighbour's burst) only ever slows a block down and comes in
// episodes of seconds, so the best of five is the figure it disturbs
// least; a change that slows every operation slows every block, the
// best one included.
const statBlocks = 5

// perBlock splits s, in time order, into statBlocks consecutive blocks
// and returns f of each; with fewer than 20 samples per block it
// returns f of the whole series alone.
func (s series) perBlock(f func(series) float64) series {
	if len(s) < 20*statBlocks {
		return series{f(s)}
	}
	var per series
	for b := 0; b < statBlocks; b++ {
		per.add(f(s[b*len(s)/statBlocks : (b+1)*len(s)/statBlocks]))
	}
	return per
}

// setLatencies reports the end-to-end latency metrics and cost_ratio
// from per-operation samples in ms, each series in time order.
func setLatencies(res *result, packS, unpackS, basePackS series) {
	p50 := packS.perBlock(series.median).min()
	res.set("pack_ms_p50", p50, len(packS))
	res.set("pack_ms_p90", packS.perBlock(series.tail).min(), len(packS))
	res.set("unpack_ms_p50", unpackS.perBlock(series.median).min(), len(unpackS))
	res.set("unpack_ms_p90", unpackS.perBlock(series.tail).min(), len(unpackS))
	res.set("cost_ratio", p50/basePackS.perBlock(series.median).min(), len(basePackS))
}

// rateOf is the operations per second of back-to-back operations whose
// durations in ms are s.
func rateOf(s series) float64 { return float64(len(s)) / (s.sum() / 1000) }

func (s series) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

func (s series) min() float64 { return s.quantile(0) }

func (s series) max() float64 {
	var m float64
	for i, v := range s {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// overheadFrac is (traced - untraced) / untraced on the medians of two
// series of the same end-to-end operation; 0 when either is empty.
func overheadFrac(traced, untraced series) float64 {
	u := untraced.median()
	if len(traced) == 0 || u == 0 {
		return 0
	}
	return (traced.median() - u) / u
}
