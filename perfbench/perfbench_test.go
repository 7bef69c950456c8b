package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"
	"time"

	"packunpack/internal/seq"
)

func TestBaselineMatchesSeq(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000, 4096} {
		for _, density := range []float64{0, 0.1, 0.5, 0.9, 1} {
			a := make([]int, n)
			f := make([]int, n)
			m := make([]bool, n)
			fillInts(a, uint64(n)+1)
			fillInts(f, uint64(n)+2)
			fillMask(m, uint64(n)+3, density)

			want := seq.Pack(a, m)
			dst := make([]int, n)
			k := basePack(dst, a, m)
			if !slices.Equal(dst[:k], want) {
				t.Fatalf("n=%d density=%v: basePack = %v, seq.Pack = %v", n, density, dst[:k], want)
			}

			v := make([]int, len(want)+1)
			copy(v, want)
			wantU := seq.Unpack(want, m, f)
			gotU := make([]int, n)
			baseUnpack(gotU, v, m, f)
			if !slices.Equal(gotU, wantU) {
				t.Fatalf("n=%d density=%v: baseUnpack = %v, seq.Unpack = %v", n, density, gotU, wantU)
			}
		}
	}
}

func TestSameSeedSameSchedule(t *testing.T) {
	span := 2 * time.Second
	a := openSchedule(42, serveRate, span)
	b := openSchedule(42, serveRate, span)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different open-loop schedules")
	}
	if reflect.DeepEqual(a, openSchedule(43, serveRate, span)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) == 0 || a[len(a)-1].at >= span {
		t.Fatalf("schedule of %d requests does not fit in %v", len(a), span)
	}
}

func TestDrawerIsStratified(t *testing.T) {
	d := newDrawer(7)
	n := len(serveMix) * maskBlock * 3
	classes := make([]int, len(serveMix))
	masks := make(map[[2]int]int) // (class, mask slot) -> count
	for i := 0; i < n; i++ {
		q := d.next()
		classes[q.class]++
		masks[[2]int{q.class, q.mask}]++
	}
	for c, got := range classes {
		if got != n/len(serveMix) {
			t.Errorf("class %d drawn %d times, want %d", c, got, n/len(serveMix))
		}
		perClass := n / len(serveMix)
		if fresh := masks[[2]int{c, -1}]; fresh != int(float64(perClass)*serveFresh) {
			t.Errorf("class %d: %d fresh masks in %d requests", c, fresh, perClass)
		}
		for m := 0; m < servePool; m++ {
			if got := masks[[2]int{c, m}]; got != perClass*3/4/servePool {
				t.Errorf("class %d pooled mask %d drawn %d times", c, m, got)
			}
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	digestBulk := func(seed uint64) [3]uint64 {
		s, err := setupBulk(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.newMask(seed, 5)
		mask := make([]int, len(s.mask))
		for i, b := range s.mask {
			mask[i] = b2i(b)
		}
		return [3]uint64{digest(s.a), digest(s.f), digest(mask)}
	}
	if digestBulk(3) != digestBulk(3) {
		t.Fatal("bulk-fresh: same seed gave different inputs")
	}
	if digestBulk(3) == digestBulk(4) {
		t.Fatal("bulk-fresh: different seeds gave the same inputs")
	}

	digestPools := func(seed uint64) uint64 {
		pools, err := setupPools(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		var all []int
		for _, c := range pools {
			for i := range c.payloads {
				all = append(all, int(digest(c.payloads[i])), int(digest(c.vectors[i])))
				for _, b := range c.masks[i] {
					all = append(all, b2i(b))
				}
			}
		}
		return digest(all)
	}
	if digestPools(3) != digestPools(3) {
		t.Fatal("serve-reuse: same seed gave different pools")
	}

	digestGrid := func(seed uint64) uint64 {
		runs, err := paperGrid(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		var all []int
		for _, r := range runs {
			all = append(all, int(digest(r.a)), int(digest(r.wantU)))
		}
		return digest(all)
	}
	if digestGrid(3) != digestGrid(3) {
		t.Fatal("paper-sim: same seed gave different inputs")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Children overlap on [20,30) and one sticks out past the
		// parent's end: the union inside the parent is [10,40)+[90,100).
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 40},
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120},
		// A grandchild counts against its own parent only.
		{ID: 5, Parent: 2, Name: "c", Start: 12, End: 18},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"root": 60, "a": 14, "b": 50, "c": 6}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {19, 0.5}, {50, 0.8}, {100, 0.9}, {100000, 0.9}} {
		if got := tailQ(c.n); got != c.want {
			t.Errorf("tailQ(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestBestBlockIgnoresSlowBlocks(t *testing.T) {
	var s series
	for i := 0; i < 20*statBlocks; i++ {
		v := 1.0
		if i < 20*(statBlocks-1) { // every block but the last is slower
			v = 10 + float64(i%7)
		}
		s.add(v)
	}
	if got := s.perBlock(series.median).min(); got != 1 {
		t.Fatalf("best block median = %v, want 1", got)
	}
	if got := s[:50].perBlock(series.max); len(got) != 1 || got[0] != 16 {
		t.Fatalf("short series: perBlock = %v, want the whole series' max", got)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly
// the workloads and metrics this program reports, under valid names.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
		if w.Why == "" {
			t.Errorf("workload %q has no reason", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(bj.Workloads), len(workloads))
	}
	for _, c := range []struct {
		label string
		decl  []struct{ Name, Unit string }
		defs  []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.decl) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", c.label, len(c.decl), len(c.defs))
		}
		for i, d := range c.defs {
			if c.decl[i].Name != d.name || c.decl[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", c.label, i, c.decl[i].Name, c.decl[i].Unit, d.name, d.unit)
			}
			names = append(names, d.name)
		}
	}
	seen := make(map[string]bool)
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
}

// TestPaperPassMatchesGolden runs one pass of the grid: every run's
// output must match internal/seq and its virtual figures golden.json.
func TestPaperPassMatchesGolden(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	runs, err := paperGrid(9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(golden) {
		t.Fatalf("grid has %d runs, golden.json %d", len(runs), len(golden))
	}
	res := newResult()
	paperPassRun(runs, golden, &rng{s: 1}, res, nil, make([]int, 1<<16), time.Second)
	if res.attempted != len(runs) || res.failed != 0 {
		t.Fatalf("pass: %d attempted, %d failed", res.attempted, res.failed)
	}
}
