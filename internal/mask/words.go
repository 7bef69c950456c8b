package mask

import (
	"encoding/binary"
	"math/bits"
	"unsafe"
)

// This file is the word kernel of the local layer: a local mask is
// packed once into 64-element words, and the ranking scan, the
// compact-scheme slice rescans, placement and plan compilation count,
// walk and place from the words instead of testing one bool at a time.

// gather multiplies eight 0/1 bytes of a little-endian word into its
// top byte: byte j's bit lands at bit 56+j. The eight partial products
// 2^(8i) * 2^(56-7j) sit at distinct bit positions 56+8i-7j, so no two
// of them carry into each other, and only i == j lands in the top byte.
const gather = 0x0102040810204080

// Words packs a local mask into 64-element words: element i is bit
// i%64 of word i/64, and the bits past len(m) in the last word are
// zero.
func Words(m []bool) []uint64 {
	w := make([]uint64, (len(m)+63)/64)
	// A Go bool is one byte holding 0 or 1, so the mask reads as bytes
	// and eight elements pack with one load and one multiply.
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(m))), len(m))
	full := len(b) &^ 63
	for i := 0; i < full; i += 64 {
		c := b[i : i+64 : i+64]
		var x uint64
		for j := 0; j < 64; j += 8 {
			x |= (binary.LittleEndian.Uint64(c[j:]) * gather >> 56) << uint(j)
		}
		w[i>>6] = x
	}
	for i := full; i < len(b); i++ {
		w[i>>6] |= uint64(b[i]) << uint(i&63)
	}
	return w
}

// span returns the bits of elements [off, off+w), right-aligned: bit j
// is element off+j. w must be in [1, 64]; the span may straddle two
// words.
func span(words []uint64, off, w int) uint64 {
	i, s := off>>6, uint(off&63)
	x := words[i] >> s
	if int(s)+w > 64 {
		x |= words[i+1] << (64 - s)
	}
	return x & (uint64(1)<<uint(w) - 1)
}

// chunk returns the width of the next word-aligned piece of [off, hi):
// the elements from off up to the end of off's word or to hi, whichever
// comes first. Walking a range chunk by chunk reads each word once and
// never straddles.
func chunk(off, hi int) int { return min(64-off&63, hi-off) }

// OnesIter walks the set elements of a range in order. It reads each
// word once and steps from set bit to set bit with trailing-zero
// counts, so clear elements cost nothing. It is a small value with no
// closures: a walk allocates nothing, and the compiler keeps its state
// in registers.
//
//	it := mask.Ones(words, lo, hi)
//	for off, ok := it.Next(); ok; off, ok = it.Next() {
//		use(off)
//	}
type OnesIter struct {
	words []uint64
	end   int    // the end of the word x was read from
	hi    int    // the end of the range
	x     uint64 // the unvisited set bits of that word
}

// Ones returns a walk over the set elements of [lo, hi).
func Ones(words []uint64, lo, hi int) OnesIter {
	if lo >= hi {
		return OnesIter{}
	}
	// The first word, without the bits below lo.
	o := OnesIter{words: words, end: lo&^63 + 64, hi: hi, x: words[lo>>6] &^ (1<<uint(lo&63) - 1)}
	if o.end > hi {
		o.x &= 1<<uint(hi&63) - 1
	}
	return o
}

// Next returns the offset of the next set element, or false at the
// end of the range. It is small enough to inline.
func (o *OnesIter) Next() (int, bool) {
	for o.x == 0 {
		if !o.load() {
			return 0, false
		}
	}
	off := o.end - 64 + bits.TrailingZeros64(o.x)
	o.x &= o.x - 1
	return off, true
}

// load reads the word after the last one read, without the bits from
// hi on, and reports whether the range has one.
func (o *OnesIter) load() bool {
	if o.end >= o.hi {
		return false
	}
	o.x = o.words[o.end>>6]
	if o.end += 64; o.end > o.hi {
		o.x &= 1<<uint(o.hi&63) - 1
	}
	return true
}

// RunsIter walks the maximal runs of set elements of a range in order.
// Runs of ones come from trailing-zero scans, so the walk costs one
// step per run, not per element; a run that crosses a word boundary is
// one run.
//
//	it := mask.Runs(words, lo, hi)
//	for off, n, ok := it.Next(); ok; off, n, ok = it.Next() {
//		use(off, n)
//	}
type RunsIter struct{ w OnesIter }

// Runs returns a walk over the maximal runs of set elements of
// [lo, hi).
func Runs(words []uint64, lo, hi int) RunsIter { return RunsIter{Ones(words, lo, hi)} }

// Next returns the first offset and the length of the next run, or
// false at the end of the range.
func (r *RunsIter) Next() (off, n int, ok bool) {
	w := &r.w
	for w.x == 0 {
		if !w.load() {
			return 0, 0, false
		}
	}
	for {
		z := bits.TrailingZeros64(w.x)
		k := bits.TrailingZeros64(^(w.x >> uint(z))) // the run's length in this word
		if n == 0 {
			off = w.end - 64 + z
		}
		n += k
		w.x &^= (1<<uint(k) - 1) << uint(z)
		// The run goes on only from the last bit of a word into a next
		// word that starts with a set element.
		if z+k < 64 || !w.load() || w.x&1 == 0 {
			return off, n, true
		}
	}
}

// CountRange returns the number of set elements in [lo, hi).
func CountRange(words []uint64, lo, hi int) int {
	n := 0
	for off := lo; off < hi; {
		w := chunk(off, hi)
		n += bits.OnesCount64(span(words, off, w))
		off += w
	}
	return n
}

// ScanLen returns how many elements a stop-early scan of [lo, hi)
// reads before it has seen k set elements: the offset of the k-th set
// element from lo, plus one. A range holding fewer than k set elements
// is read whole (hi-lo). k must be at least 1.
func ScanLen(words []uint64, lo, hi, k int) int {
	for off := lo; off < hi; {
		w := chunk(off, hi)
		x := span(words, off, w)
		c := bits.OnesCount64(x)
		switch {
		case k == c:
			// The last set element of the chunk.
			return off - lo + 64 - bits.LeadingZeros64(x)
		case k < c:
			for ; k > 1; k-- {
				x &= x - 1
			}
			return off - lo + bits.TrailingZeros64(x) + 1
		}
		k -= c
		off += w
	}
	return hi - lo
}
