package pack

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/seq"
	"packunpack/internal/sim"
)

// multiWordLayouts have dimension-0 blocks of 63, 64, 65 and 130
// elements, so their slices straddle 64-element mask words or span
// several of them.
var multiWordLayouts = []struct {
	name    string
	l       *dist.Layout
	density float64
}{
	{"W63", dist.MustLayout(dist.Dim{N: 378, P: 2, W: 63}), 0.3},
	{"W64", dist.MustLayout(dist.Dim{N: 512, P: 2, W: 64}), 0.6},
	{"W65x2d", dist.MustLayout(dist.Dim{N: 390, P: 3, W: 65}, dist.Dim{N: 4, P: 2, W: 2}), 0.5},
	{"W130x2d", dist.MustLayout(dist.Dim{N: 520, P: 2, W: 130}, dist.Dim{N: 3, P: 1, W: 3}), 0.9},
}

// multiWordStats holds, per case, the emulator's per-rank Ops/Msgs/
// Words after one PACK and its UNPACK round trip (two of each for the
// planned cases: a compiling call and a cache hit), then the machine's
// final virtual clock. The figures were recorded from the element-loop
// implementation that preceded the word-packed masks; the word kernels
// must charge exactly the same operations in the same order.
var multiWordStats = map[string]string{
	"W63/SSS/whole=false/vw=0":             "1759/8/266 1547/8/218 1261.6499999999976",
	"W63/SSS/whole=true/vw=0":              "1759/8/266 1547/8/218 1261.6499999999976",
	"W63/SSS/whole=false/vw=7":             "1771/8/269 1535/8/215 1264.9499999999973",
	"W63/CSS/whole=false/vw=0":             "1556/8/207 1411/8/173 1201.8499999999997",
	"W63/CSS/whole=true/vw=0":              "1561/8/207 1429/8/173 1202.6000000000001",
	"W63/CSS/whole=false/vw=7":             "1799/8/226 1618/8/182 1247.65",
	"W63/CMS/whole=false/vw=0":             "1444/8/148 1315/8/128 1155.55",
	"W63/CMS/whole=true/vw=0":              "1449/8/148 1333/8/128 1156.3000000000002",
	"W63/CMS/whole=false/vw=7":             "1714/8/183 1551/8/149 1213.4",
	"W63/CSS/whole=false/vw=7/planned":     "2980/18/656 2696/18/548 2850.200000000004",
	"W64/SSS/whole=false/vw=0":             "3544/8/619 3402/8/585 1707.4999999999936",
	"W64/SSS/whole=true/vw=0":              "3544/8/619 3402/8/585 1707.4999999999936",
	"W64/SSS/whole=false/vw=7":             "3548/8/620 3398/8/584 1708.5999999999935",
	"W64/CSS/whole=false/vw=0":             "2537/8/473 2572/8/452 1493.3",
	"W64/CSS/whole=true/vw=0":              "2549/8/473 2574/8/452 1494.4999999999998",
	"W64/CSS/whole=false/vw=7":             "3363/8/520 3201/8/487 1630.85",
	"W64/CMS/whole=false/vw=0":             "2250/8/327 2301/8/319 1377.25",
	"W64/CMS/whole=true/vw=0":              "2262/8/327 2303/8/319 1378.45",
	"W64/CMS/whole=false/vw=7":             "3157/8/420 3013/8/390 1549.9500000000007",
	"W64/CSS/whole=false/vw=7/planned":     "5118/18/1288 4820/18/1180 3488.5",
	"W65x2d/SSS/whole=false/vw=0":          "3472/24/546 3232/22/490 3184/24/486 3316/24/516 3172/22/478 3412/24/528 3462.5000000000223",
	"W65x2d/SSS/whole=true/vw=0":           "3472/24/546 3232/22/490 3184/24/486 3316/24/516 3172/22/478 3412/24/528 3462.5000000000223",
	"W65x2d/SSS/whole=false/vw=7":          "3484/24/549 3244/22/493 3196/24/489 3312/24/515 3156/22/474 3396/24/524 3398.5000000000236",
	"W65x2d/CSS/whole=false/vw=0":          "2461/24/421 2404/22/381 2327/24/379 2417/24/401 2324/22/371 2430/24/409 3229",
	"W65x2d/CSS/whole=true/vw=0":           "2479/24/421 2416/22/381 2345/24/379 2433/24/401 2334/22/371 2485/24/409 3233.9499999999994",
	"W65x2d/CSS/whole=false/vw=7":          "3101/24/458 2985/22/414 2868/24/412 2938/24/434 2889/22/399 3036/24/437 3296.149999999997",
	"W65x2d/CMS/whole=false/vw=0":          "2221/24/296 2182/22/272 2107/24/272 2187/24/286 2106/22/264 2196/24/290 3117",
	"W65x2d/CMS/whole=true/vw=0":           "2239/24/296 2194/22/272 2125/24/272 2203/24/286 2116/22/264 2251/24/290 3121.949999999999",
	"W65x2d/CMS/whole=false/vw=7":          "2930/24/367 2820/22/335 2707/24/335 2775/24/353 2737/22/324 2868/24/350 3223.099999999995",
	"W65x2d/CSS/whole=false/vw=7/planned":  "4814/54/1180 4810/56/1164 4602/50/1068 4756/54/1152 4740/44/1094 4894/54/1194 7632.000000000011",
	"W130x2d/SSS/whole=false/vw=0":         "16396/8/2811 16240/8/2777 4734.500000000127",
	"W130x2d/SSS/whole=true/vw=0":          "16396/8/2811 16240/8/2777 4734.500000000127",
	"W130x2d/SSS/whole=false/vw=7":         "16404/8/2813 16232/8/2775 4736.700000000128",
	"W130x2d/CSS/whole=false/vw=0":         "9600/8/2124 9557/8/2099 3371.6000000000017",
	"W130x2d/CSS/whole=true/vw=0":          "9724/8/2124 9557/8/2099 3390.2000000000016",
	"W130x2d/CSS/whole=false/vw=7":         "16279/8/2322 16223/8/2293 4472.4500000000035",
	"W130x2d/CMS/whole=false/vw=0":         "8231/8/1437 8196/8/1421 2822.75",
	"W130x2d/CMS/whole=true/vw=0":          "8355/8/1437 8196/8/1421 2841.35",
	"W130x2d/CMS/whole=false/vw=7":         "15300/8/1831 15256/8/1811 4080.0999999999676",
	"W130x2d/CSS/whole=false/vw=7/planned": "15778/18/4122 15900/18/4186 6568.549999999992",
}

// multiWordCase names one pinned configuration.
type multiWordCase struct {
	scheme  Scheme
	whole   bool
	vectorW int
	planned bool
}

func (c multiWordCase) String() string {
	s := fmt.Sprintf("%v/whole=%v/vw=%d", c.scheme, c.whole, c.vectorW)
	if c.planned {
		s += "/planned"
	}
	return s
}

// TestMultiWordChargeParity runs every scheme, both scan policies and
// the planned path on the multi-word layouts, checks the results
// against internal/seq, and compares the emulator statistics with the
// pinned figures.
func TestMultiWordChargeParity(t *testing.T) {
	var cases []multiWordCase
	for _, sc := range []Scheme{SchemeSSS, SchemeCSS, SchemeCMS} {
		cases = append(cases,
			multiWordCase{scheme: sc},
			multiWordCase{scheme: sc, whole: true},
			multiWordCase{scheme: sc, vectorW: 7})
	}
	cases = append(cases, multiWordCase{scheme: SchemeCSS, vectorW: 7, planned: true})
	for _, lc := range multiWordLayouts {
		for _, c := range cases {
			key := lc.name + "/" + c.String()
			got := runMultiWordCase(t, lc.l, lc.density, c)
			if want := multiWordStats[key]; got != want {
				t.Errorf("%s: stats %q, want %q", key, got, want)
			}
		}
	}
}

// runMultiWordCase executes one case on a CM-5-parameterized emulator,
// verifies PACK and UNPACK against the sequential reference and
// returns the statistics fingerprint.
func runMultiWordCase(t *testing.T, l *dist.Layout, density float64, c multiWordCase) string {
	t.Helper()
	shape := make([]int, l.Rank())
	for i, d := range l.Dims {
		shape[i] = d.N
	}
	gen := mask.NewRandom(density, 0x6d77, shape...)
	global := make([]int, l.GlobalSize())
	for i := range global {
		global[i] = 5*i + 2
	}
	gmask := mask.FillGlobal(l, gen)
	want := seq.Pack(global, gmask)
	locals := dist.Scatter(l, global)
	field := make([]int, len(global))
	for i := range field {
		field[i] = -i - 1
	}
	fields := dist.Scatter(l, field)
	wantBack := seq.Unpack(want, gmask, field)

	opt := Options{Scheme: c.scheme, VectorW: c.vectorW, WholeSliceScan: c.whole}
	if c.planned {
		opt.Plans = NewPlanCache()
	}
	uopt := opt
	if uopt.Scheme == SchemeCMS {
		uopt.Scheme = SchemeCSS
	}
	calls := 1
	if c.planned {
		calls = 2
	}
	m := sim.MustNew(sim.Config{Procs: l.Procs(), Params: sim.CM5Params()})
	packed := make([][]int, l.Procs())
	vecs := make([]dist.VectorDist, l.Procs())
	back := make([][]int, l.Procs())
	err := m.Run(func(p *sim.Proc) {
		lm := mask.FillLocal(l, p.Rank(), gen)
		for call := 0; call < calls; call++ {
			res, err := Pack(p, l, locals[p.Rank()], lm, opt)
			if err != nil {
				panic(err)
			}
			u, err := Unpack(p, l, res.V, res.Vec.Size, lm, fields[p.Rank()], uopt)
			if err != nil {
				panic(err)
			}
			packed[p.Rank()], vecs[p.Rank()], back[p.Rank()] = res.V, res.Vec, u.A
		}
	})
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	got := make([]int, len(want))
	for rank, v := range packed {
		for i, x := range v {
			got[vecs[rank].ToGlobal(rank, i)] = x
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%v: pack mismatch", c)
	}
	if gotBack := dist.Gather(l, back); fmt.Sprint(gotBack) != fmt.Sprint(wantBack) {
		t.Fatalf("%v: unpack mismatch", c)
	}
	var b strings.Builder
	for _, st := range m.Stats() {
		fmt.Fprintf(&b, "%d/%d/%d ", st.Ops, st.MsgsSent, st.WordsSent)
	}
	b.WriteString(strconv.FormatFloat(m.MaxClock(), 'g', -1, 64))
	return b.String()
}
