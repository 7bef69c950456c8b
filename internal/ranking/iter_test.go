package ranking

import (
	"testing"

	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/sim"
)

// TestIterRecordsMatchesKeptRecords pins the word run walk to the
// materialized Records slice: for every rank of several layouts
// (including slices that straddle or span 64-element mask words) and
// mask densities, the runs ForEachRun emits, expanded element by
// element, must give exactly the records that Options.KeepRecords
// stores, in the same scan order. The runs must also be maximal: no
// run may continue both the offsets and the ranks of the one before.
func TestIterRecordsMatchesKeptRecords(t *testing.T) {
	layouts := []*dist.Layout{
		dist.MustLayout(dist.Dim{N: 96, P: 4, W: 1}),
		dist.MustLayout(dist.Dim{N: 96, P: 4, W: 8}),
		dist.MustLayout(dist.Dim{N: 105, P: 3, W: 7}),
		dist.MustLayout(dist.Dim{N: 24, P: 2, W: 3}, dist.Dim{N: 10, P: 2, W: 5}),
		dist.MustLayout(dist.Dim{N: 252, P: 2, W: 63}),
		dist.MustLayout(dist.Dim{N: 256, P: 1, W: 64}),
		dist.MustLayout(dist.Dim{N: 390, P: 3, W: 65}, dist.Dim{N: 3, P: 1, W: 3}),
		dist.MustLayout(dist.Dim{N: 520, P: 2, W: 130}),
	}
	for _, l := range layouts {
		gens := map[string]mask.Gen{
			"empty": mask.Empty{},
			"full":  mask.Full{},
			"d30":   mask.NewRandom(0.3, 11, shapes(l)...),
			"d80":   mask.NewRandom(0.8, 12, shapes(l)...),
		}
		for name, gen := range gens {
			m := sim.MustNew(sim.Config{Procs: l.Procs()})
			err := m.Run(func(p *sim.Proc) {
				lm := mask.FillLocal(l, p.Rank(), gen)
				res, err := Rank(p, l, lm, Options{KeepRecords: true})
				if err != nil {
					panic(err)
				}
				w0 := l.Dims[0].W
				var got []Record
				prevEnd, prevRankEnd := -1, -1
				res.ForEachRun(w0, func(off, rank, n int) {
					if n <= 0 || (off == prevEnd && rank == prevRankEnd) {
						t.Errorf("%v/%s rank %d: run (%d, %d, %d) is empty or not maximal", l, name, p.Rank(), off, rank, n)
					}
					prevEnd, prevRankEnd = off+n, rank+n
					for j := 0; j < n; j++ {
						slice := (off + j) / w0
						got = append(got, Record{Off: off + j, Slice: slice, InitRank: rank + j - res.PSf[slice]})
					}
				})
				if len(got) != len(res.Records) {
					t.Errorf("%v/%s rank %d: runs hold %d records, kept %d", l, name, p.Rank(), len(got), len(res.Records))
					return
				}
				for i, rec := range got {
					if rec != res.Records[i] {
						t.Errorf("%v/%s rank %d: record %d = %+v, kept %+v", l, name, p.Rank(), i, rec, res.Records[i])
						return
					}
				}
			})
			if err != nil {
				t.Fatalf("%v/%s: %v", l, name, err)
			}
		}
	}
}
