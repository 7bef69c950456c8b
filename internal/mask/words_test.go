package mask

import (
	"math/bits"
	"slices"
	"testing"
)

// FuzzMaskWords checks the word kernel against plain []bool loops:
// the packer's bit layout, span extraction, range popcounts, the
// stop-early scan lengths and the set-element and run iterators, for
// random masks, offsets and widths.
func FuzzMaskWords(f *testing.F) {
	f.Add([]byte{0xff, 0x0f, 0xa5, 0x00, 0x81, 0xff, 0xff, 0xff, 0x01}, uint8(3), uint16(60), uint16(9), uint16(70), uint8(5))
	f.Add([]byte{0x01}, uint8(7), uint16(0), uint16(1), uint16(1), uint8(1))
	f.Add(make([]byte, 40), uint8(0), uint16(63), uint16(64), uint16(200), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, trim uint8, off, w, hi uint16, k uint8) {
		n := len(data)*8 - int(trim%8)
		if n <= 0 {
			return
		}
		m := make([]bool, n)
		for i := range m {
			m[i] = data[i/8]>>(i%8)&1 == 1
		}
		words := Words(m)
		if len(words) != (n+63)/64 {
			t.Fatalf("n=%d: %d words", n, len(words))
		}
		for i := 0; i < 64*len(words); i++ {
			want := i < n && m[i]
			if got := words[i/64]>>(i%64)&1 == 1; got != want {
				t.Fatalf("n=%d: bit %d = %v, mask %v", n, i, got, want)
			}
		}

		lo := int(off) % n
		width := 1 + int(w)%min(64, n-lo)
		var bitsWant uint64
		for j := 0; j < width; j++ {
			if m[lo+j] {
				bitsWant |= 1 << j
			}
		}
		if got := span(words, lo, width); got != bitsWant {
			t.Fatalf("span(%d, %d) = %#x, want %#x", lo, width, got, bitsWant)
		}

		end := lo + int(hi)%(n-lo+1)
		count := 0
		for _, b := range m[lo:end] {
			if b {
				count++
			}
		}
		if got := CountRange(words, lo, end); got != count {
			t.Fatalf("CountRange(%d, %d) = %d, want %d", lo, end, got, count)
		}

		// The stop-early scan: read elements until the k-th selected
		// one, or the whole range.
		need := 1 + int(k)%(count+2)
		scan, seen := end-lo, 0
		for i := lo; i < end; i++ {
			if m[i] {
				seen++
				if seen == need {
					scan = i - lo + 1
					break
				}
			}
		}
		if got := ScanLen(words, lo, end, need); got != scan {
			t.Fatalf("ScanLen(%d, %d, %d) = %d, want %d", lo, end, need, got, scan)
		}
		if got := bits.OnesCount64(span(words, lo, width)); got != CountRange(words, lo, lo+width) {
			t.Fatalf("span popcount %d disagrees with CountRange", got)
		}

		// Ones walks the set offsets in order, and a walk may stop
		// early; Runs walks the maximal runs of set offsets.
		var ones []int
		var runs [][2]int
		for i := lo; i < end; i++ {
			if !m[i] {
				continue
			}
			ones = append(ones, i)
			if r := len(runs) - 1; r >= 0 && runs[r][0]+runs[r][1] == i {
				runs[r][1]++
			} else {
				runs = append(runs, [2]int{i, 1})
			}
		}
		var got []int
		it := Ones(words, lo, end)
		for off, ok := it.Next(); ok && len(got) < need; off, ok = it.Next() {
			got = append(got, off)
		}
		if want := ones[:min(need, len(ones))]; !slices.Equal(got, want) {
			t.Fatalf("Ones(%d, %d) up to %d = %v, want %v", lo, end, need, got, want)
		}
		var gotRuns [][2]int
		runIt := Runs(words, lo, end)
		for off, n, ok := runIt.Next(); ok; off, n, ok = runIt.Next() {
			gotRuns = append(gotRuns, [2]int{off, n})
		}
		if !slices.Equal(gotRuns, runs) {
			t.Fatalf("Runs(%d, %d) = %v, want %v", lo, end, gotRuns, runs)
		}
	})
}
