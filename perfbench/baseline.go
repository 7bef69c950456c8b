package main

import (
	"slices"
	"time"
)

// The COST baseline: one good single-threaded loop for each operation,
// writing into buffers the caller preallocates, with no branch on the
// mask. cost_ratio divides the distributed PACK's median by this
// loop's median on the same inputs.

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// basePack writes the elements of a selected by m to the front of dst
// and returns how many it wrote. Every element is stored and the write
// cursor advances only on selected ones, so the loop has no
// data-dependent branch. dst must hold len(a) elements.
func basePack(dst, a []int, m []bool) int {
	dst = dst[:len(a)]
	m = m[:len(a)]
	k := 0
	for i, v := range a {
		dst[k] = v
		k += b2i(m[i])
	}
	return k
}

// baseUnpack writes into dst the next element of v at every selected
// position of m and f's element elsewhere. v needs one element more
// than m selects: the unselected tail reads it without using it.
func baseUnpack(dst, v []int, m []bool, f []int) {
	dst = dst[:len(m)]
	f = f[:len(m)]
	k := 0
	for i := range m {
		s := b2i(m[i])
		sel := -s // all ones when selected
		dst[i] = f[i] ^ ((f[i] ^ v[k]) & sel)
		k += s
	}
}

// baseReps is how many times a baseline loop runs back to back per
// timing. The median repetition is reported: loops that take
// microseconds are otherwise at the mercy of one cold cache or one
// interrupt.
const baseReps = 3

// timeBaseline runs fn baseReps times, each as its own span, and
// returns the median duration.
func timeBaseline(tr *tracer, parent, req int64, name string, fn func()) time.Duration {
	var reps [baseReps]time.Duration
	for i := range reps {
		reps[i] = tr.timed(parent, req, name, fn)
	}
	slices.Sort(reps[:])
	return reps[baseReps/2]
}
