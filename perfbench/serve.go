package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"packunpack/internal/dist"
	"packunpack/internal/mask"
	"packunpack/internal/pack"
	"packunpack/internal/seq"
	"packunpack/internal/serve"
	"packunpack/internal/sim"
	"packunpack/internal/transport"
)

// serve-reuse drives serve.Server on the real backend with one worker
// and P=2 layouts: first open-loop Poisson arrivals at serveRate for
// serveOpenShare of --seconds, then serveCallers closed-loop callers
// for the rest.
//
// The end-to-end metrics come from the closed-loop phase: request
// latency from Submit to the resolved future, and completed requests
// per second. The open-loop latency, timed from each request's due
// time, is reported per layer (serve.open_ms_*): on a 2-CPU virtual
// host it moves by a factor of two to five between identical runs as
// the host's own load comes and goes, far beyond any bound a
// regression gate could use.
const (
	// serveRate is the fixed offered rate in requests per second,
	// chosen by measuring this mix on a 2-CPU host before fixing it:
	// one worker completes 1000 to 1300 requests/s there, so 400/s
	// keeps utilisation near a third.
	serveRate      = 400
	serveOpenShare = 0.5
	serveCallers   = 2
	// serveQueue holds 2.5 s of arrivals at serveRate, so a host stall
	// of a second or two shows as queueing delay rather than as
	// rejected requests.
	serveQueue = 1024
	servePool  = 4    // pooled masks and payloads per class
	serveFresh = 0.25 // share of requests carrying a fresh mask
	freshRun   = 32   // mean run length of a fresh mask
)

// serveClass is one job class of the mix; each is its own tenant.
type serveClass struct {
	tenant string
	kind   serve.JobKind
	scheme pack.Scheme
	dims   []dist.Dim
}

// serveMix is the traffic mix, drawn with equal weight: small (2048
// elements) and medium (8192 to 16384) PACK and UNPACK jobs across the
// three schemes.
var serveMix = []serveClass{
	{"pack-sss-small", serve.JobPack, pack.SchemeSSS, []dist.Dim{{N: 2048, P: 2, W: 1}}},
	{"pack-css-medium", serve.JobPack, pack.SchemeCSS, []dist.Dim{{N: 128, P: 2, W: 8}, {N: 64, P: 1, W: 64}}},
	{"pack-cms-medium", serve.JobPack, pack.SchemeCMS, []dist.Dim{{N: 16384, P: 2, W: 64}}},
	{"unpack-sss-small", serve.JobUnpack, pack.SchemeSSS, []dist.Dim{{N: 2048, P: 2, W: 4}}},
	{"unpack-css-medium", serve.JobUnpack, pack.SchemeCSS, []dist.Dim{{N: 16384, P: 2, W: 16}}},
	{"unpack-cms-small", serve.JobUnpack, pack.SchemeCMS, []dist.Dim{{N: 32, P: 1, W: 32}, {N: 64, P: 2, W: 4}}},
}

// classPool holds one class's layout and its seeded pools. Fresh-mask
// buffers are recycled once the job using them has completed, so the
// generator allocates nothing per request in steady state.
type classPool struct {
	serveClass
	l        *dist.Layout
	payloads [][]int  // Global arrays (data or UNPACK field)
	vectors  [][]int  // UNPACK input vectors, one per payload
	masks    [][]bool // pooled masks

	mu   sync.Mutex
	free [][]bool
}

func (c *classPool) takeBuf() []bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.free); n > 0 {
		b := c.free[n-1]
		c.free = c.free[:n-1]
		return b
	}
	return make([]bool, c.l.GlobalSize())
}

func (c *classPool) putBuf(b []bool) {
	c.mu.Lock()
	c.free = append(c.free, b)
	c.mu.Unlock()
}

// request is one scheduled request: everything needed to rebuild its
// inputs, decided from the seed alone.
type request struct {
	class, payload int
	mask           int    // pooled mask index, or -1 for a fresh mask
	freshSeed      uint64 // seeds the fresh mask
	at             time.Duration
}

// outcome is what the benchmark keeps of a completed request: the
// latency and a digest of the response, checked after the timed phase.
type outcome struct {
	req              request
	lat              time.Duration
	done             time.Duration // closed loop: completion, since the phase began
	queue, service   time.Duration
	count            int
	sum              uint64
	err              error
	rejected, traced bool
}

// drawer picks each request's class, payload and mask from a seeded
// stream, stratified so every seed offers the same proportions: each
// block of len(serveMix) requests holds every class once, and each
// class's block of maskBlock requests holds serveFresh fresh masks and
// every pooled mask equally often, in shuffled order.
type drawer struct {
	r       rng
	classes []int
	masks   [][]int // per class: the rest of its current block
}

const maskBlock = 16 // 4 fresh + 3 of each of the 4 pooled masks

func newDrawer(seed uint64) *drawer {
	return &drawer{r: rng{s: seed}, masks: make([][]int, len(serveMix))}
}

func (d *drawer) next() request {
	if len(d.classes) == 0 {
		d.classes = d.r.perm(len(serveMix))
	}
	c := d.classes[0]
	d.classes = d.classes[1:]
	if len(d.masks[c]) == 0 {
		slots := make([]int, 0, maskBlock)
		for i := 0; i < maskBlock; i++ {
			if i < maskBlock*serveFresh {
				slots = append(slots, -1)
			} else {
				slots = append(slots, i%servePool)
			}
		}
		d.masks[c] = d.r.shuffle(slots)
	}
	q := request{class: c, payload: d.r.intn(servePool), mask: d.masks[c][0]}
	d.masks[c] = d.masks[c][1:]
	if q.mask < 0 {
		q.freshSeed = d.r.next()
	}
	return q
}

// openSchedule is the open-loop phase's arrivals: Poisson at rate over
// span, all decided from the seed.
func openSchedule(seed uint64, rate float64, span time.Duration) []request {
	r := rng{s: derive(seed, 30)}
	d := newDrawer(derive(seed, 35))
	var out []request
	at := time.Duration(0)
	for {
		at += time.Duration(r.exp(1/rate) * float64(time.Second))
		if at >= span {
			return out
		}
		q := d.next()
		q.at = at
		out = append(out, q)
	}
}

func setupPools(seed uint64, tr *tracer) ([]*classPool, error) {
	pools := make([]*classPool, len(serveMix))
	for ci, c := range serveMix {
		l, err := dist.NewLayout(c.dims...)
		if err != nil {
			return nil, err
		}
		p := &classPool{serveClass: c, l: l}
		n := l.GlobalSize()
		for i := 0; i < servePool; i++ {
			a := make([]int, n)
			fillInts(a, derive(seed, 31, uint64(ci), uint64(i)))
			v := make([]int, n)
			fillInts(v, derive(seed, 32, uint64(ci), uint64(i)))
			p.payloads = append(p.payloads, a)
			p.vectors = append(p.vectors, v)
			// Pooled densities spread from 20% to 80%.
			gen := mask.NewRandom(0.2+0.2*float64(i), derive(seed, 33, uint64(ci), uint64(i)), shapeOf(l)...)
			var m []bool
			tr.timed(0, 0, "mask.fill", func() { m = mask.FillGlobal(l, gen) })
			p.masks = append(p.masks, m)
		}
		pools[ci] = p
	}
	return pools, nil
}

func shapeOf(l *dist.Layout) []int {
	s := make([]int, len(l.Dims))
	for i, d := range l.Dims {
		s[i] = d.N
	}
	return s
}

// job builds q's job; a fresh mask is drawn into a recycled buffer,
// which the caller returns once the job has completed.
func (c *classPool) job(q request) *serve.Job {
	j := &serve.Job{Tenant: c.tenant, Kind: c.kind, Layout: c.l, Global: c.payloads[q.payload], Scheme: c.scheme}
	if c.kind == serve.JobUnpack {
		j.Vector = c.vectors[q.payload]
	}
	if q.mask >= 0 {
		j.Mask = c.masks[q.mask]
	} else {
		j.Mask = c.takeBuf()
		fillRuns(j.Mask, q.freshSeed)
	}
	return j
}

// fillRuns draws a fresh mask as alternating runs of random length
// (mean freshRun) that are each selected with probability one half.
// Runs keep a fresh mask's compiled plan near the size a real
// thresholded field gives; masks random per element would make each
// never-evicted plan about 100 kB and let the cache's growth swamp
// the heap within one run.
func fillRuns(dst []bool, seed uint64) {
	r := rng{s: seed}
	for i := 0; i < len(dst); {
		n := 1 + r.intn(2*freshRun-1)
		sel := r.next()&1 == 1
		for end := min(i+n, len(dst)); i < end; i++ {
			dst[i] = sel
		}
	}
}

// release recycles a completed job's fresh-mask buffer.
func (c *classPool) release(q request, j *serve.Job) {
	if q.mask < 0 {
		c.putBuf(j.Mask)
	}
}

// responseSum digests a response's output.
func responseSum(kind serve.JobKind, resp *serve.Response) uint64 {
	if kind == serve.JobPack {
		return digest(resp.Vector)
	}
	return digest(resp.Array)
}

// newServer builds the server under test.
func newServer() (*serve.Server, error) {
	return serve.New(serve.Config{Workers: 1, Queue: serveQueue, Backend: transport.BackendReal, Params: sim.CM5Params()})
}

// warmUp compiles every pooled mask once and exercises the fresh path.
func warmUp(srv *serve.Server, pools []*classPool) error {
	for _, c := range pools {
		for i := range c.masks {
			for _, q := range []request{{payload: i, mask: i}, {payload: i, mask: -1, freshSeed: uint64(i)}} {
				j := c.job(q)
				fut, err := srv.Submit(j)
				if err != nil {
					return fmt.Errorf("warm-up %s: %w", c.tenant, err)
				}
				if _, err := fut.Wait(); err != nil {
					return fmt.Errorf("warm-up %s: %w", c.tenant, err)
				}
				c.release(q, j)
			}
		}
	}
	return nil
}

// pending is a submitted open-loop request awaiting its response.
type pending struct {
	idx int
	due time.Time
	job *serve.Job
	fut *serve.Future
}

// runOpen offers sched to srv open-loop: each request is submitted at
// its due time and timed from it. With one worker jobs complete in
// submission order, so one collector waiting on futures in that order
// sees each completion as it happens. It returns the generator's
// largest lateness.
func runOpen(srv *serve.Server, pools []*classPool, sched []request, out []outcome, tr *tracer) time.Duration {
	// Sized to the most requests that can be outstanding: the
	// admission queue plus the one in service.
	ch := make(chan pending, serveQueue+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for p := range ch {
			resp, err := p.fut.Wait()
			done := time.Now()
			c := pools[sched[p.idx].class]
			o := &out[p.idx]
			o.lat = done.Sub(p.due)
			if err != nil {
				o.err = err
			} else {
				o.queue, o.service, o.count = resp.Queue, resp.Service, resp.Count
				o.sum = responseSum(c.kind, resp)
			}
			c.release(sched[p.idx], p.job)
			if o.traced {
				root := tr.record(0, 0, int64(p.idx), "serve.request", p.due, done)
				if err == nil {
					qStart := done.Add(-resp.Service - resp.Queue)
					tr.record(0, root, int64(p.idx), "serve.queue", qStart, qStart.Add(resp.Queue))
					tr.record(0, root, int64(p.idx), "serve.service", qStart.Add(resp.Queue), done)
				}
			}
		}
	}()

	var late time.Duration
	start := time.Now().Add(10 * time.Millisecond)
	for i, q := range sched {
		c := pools[q.class]
		j := c.job(q)
		due := start.Add(q.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		subStart := time.Now()
		late = max(late, subStart.Sub(due))
		fut, err := srv.Submit(j)
		subEnd := time.Now()
		out[i] = outcome{req: q, traced: tr.enabled() && i%2 == 0}
		if out[i].traced {
			tr.record(0, 0, int64(i), "serve.Submit", subStart, subEnd)
		}
		if err != nil {
			out[i].err, out[i].rejected = err, true
			c.release(q, j)
			continue
		}
		ch <- pending{idx: i, due: due, job: j, fut: fut}
	}
	close(ch)
	wg.Wait()
	return late
}

// runClosed keeps serveCallers requests outstanding for d and returns
// the outcomes in completion order and the phase's wall time.
func runClosed(srv *serve.Server, pools []*classPool, seed uint64, d time.Duration) ([]outcome, time.Duration) {
	outs := make([][]outcome, serveCallers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for k := 0; k < serveCallers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			dr := newDrawer(derive(seed, 34, uint64(k)))
			for time.Now().Before(deadline) {
				q := dr.next()
				c := pools[q.class]
				j := c.job(q)
				o := outcome{req: q}
				sub := time.Now()
				fut, err := srv.Submit(j)
				if err != nil {
					o.err, o.rejected = err, true
				} else if resp, err := fut.Wait(); err != nil {
					o.err = err
				} else {
					o.count, o.sum = resp.Count, responseSum(c.kind, resp)
				}
				o.lat = time.Since(sub)
				o.done = time.Since(start)
				c.release(q, j)
				outs[k] = append(outs[k], o)
			}
		}(k)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []outcome
	for _, o := range outs {
		all = append(all, o...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].done < all[j].done })
	return all, wall
}

// verifier recomputes expected outputs with internal/seq, memoising
// the pooled-mask ones, and times the COST baseline on the inputs of
// each PACK request it is asked to.
type verifier struct {
	pools []*classPool
	memo  map[[3]int][2]uint64 // (class, payload, mask) -> (count, digest)
	mask  map[int][]bool       // per-class scratch for fresh masks
	base  []int
	tr    *tracer
	baseS series
}

func newVerifier(pools []*classPool, tr *tracer) *verifier {
	v := &verifier{pools: pools, memo: make(map[[3]int][2]uint64), mask: make(map[int][]bool), tr: tr}
	for _, c := range pools {
		v.base = make([]int, max(len(v.base), c.l.GlobalSize()))
	}
	return v
}

func (v *verifier) check(o outcome, withBaseline bool) error {
	q := o.req
	c := v.pools[q.class]
	key := [3]int{q.class, q.payload, q.mask}
	var m []bool
	if q.mask >= 0 {
		m = c.masks[q.mask]
	} else {
		if v.mask[q.class] == nil {
			v.mask[q.class] = make([]bool, c.l.GlobalSize())
		}
		m = v.mask[q.class]
		fillRuns(m, q.freshSeed)
	}
	if withBaseline && c.kind == serve.JobPack {
		d := timeBaseline(v.tr, 0, 0, "baseline.pack", func() { basePack(v.base, c.payloads[q.payload], m) })
		v.baseS.addDur(d, time.Millisecond)
	}
	want, ok := v.memo[key]
	if !ok || q.mask < 0 {
		var out []int
		var count int
		tr := v.tr
		if c.kind == serve.JobPack {
			tr.timed(0, 0, "seq.Pack", func() { out = seq.Pack(c.payloads[q.payload], m) })
			count = len(out)
		} else {
			count = seq.Count(m)
			out = seq.Unpack(c.vectors[q.payload], m, c.payloads[q.payload])
		}
		want = [2]uint64{uint64(count), digest(out)}
		if q.mask >= 0 {
			v.memo[key] = want
		}
	}
	if uint64(o.count) != want[0] || o.sum != want[1] {
		return fmt.Errorf("%s request (payload %d, mask %d): count %d digest %x, want count %d digest %x",
			c.tenant, q.payload, q.mask, o.count, o.sum, want[0], want[1])
	}
	return nil
}

func runServe(cfg config) (*result, error) {
	res := newResult()
	tr := cfg.tr
	traced := tr.enabled()
	var srv *serve.Server
	var pools []*classPool
	setups, err := timeSetups(func() (err error) {
		if srv != nil {
			srv.Close()
		}
		if pools, err = setupPools(cfg.seed, tr); err != nil {
			return err
		}
		if srv, err = newServer(); err != nil {
			return err
		}
		return warmUp(srv, pools)
	})
	if srv != nil {
		defer srv.Close()
	}
	if err != nil {
		return nil, err
	}

	total := time.Duration(cfg.seconds * float64(time.Second))
	openSpan := time.Duration(float64(total) * serveOpenShare)
	sched := openSchedule(cfg.seed, serveRate, openSpan)
	open := make([]outcome, len(sched))
	var meter allocMeter
	meter.start()
	late := runOpen(srv, pools, sched, open, tr)
	allocB, mallocs, gcs := meter.stop()
	// The heap is read after the open loop, whose request count the seed
	// fixes; the closed loop's count varies with the host's speed.
	heap := heapMB()
	closed, closedWall := runClosed(srv, pools, cfg.seed, total-openSpan)
	runtime.KeepAlive(pools)

	// Check every response against internal/seq, off the timed path.
	// A request that failed or was refused misses any latency limit:
	// it counts as taking its whole phase.
	v := newVerifier(pools, tr)
	var openS, packS, unpackS, doneS, queueS, serviceS series
	rejected, errored := 0, 0
	for i, o := range append(open, closed...) {
		inOpen := i < len(open)
		res.attempted++
		good := false
		switch {
		case o.rejected:
			rejected++
			res.fail("%s request %d rejected: %v", pools[o.req.class].tenant, i, o.err)
		case o.err != nil:
			errored++
			res.fail("%s request %d failed: %v", pools[o.req.class].tenant, i, o.err)
		default:
			if err := v.check(o, !inOpen); err != nil {
				res.fail("%v", err)
			} else {
				good = true
			}
		}
		if inOpen {
			lat := o.lat
			if !good {
				lat = openSpan
			}
			openS.addDur(lat, time.Millisecond)
			if o.err == nil {
				queueS.addDur(o.queue, time.Millisecond)
				serviceS.addDur(o.service, time.Millisecond)
			}
			continue
		}
		lat := o.lat
		if good {
			doneS.addDur(o.done, time.Second)
		} else {
			lat = closedWall
		}
		if pools[o.req.class].kind == serve.JobPack {
			packS.addDur(lat, time.Millisecond)
		} else {
			unpackS.addDur(lat, time.Millisecond)
		}
	}

	setLatencies(res, packS, unpackS, v.baseS)
	// Completions in time order; a block's rate is its completions over
	// the time they span.
	res.set("ops_per_s", doneS.perBlock(func(b series) float64 {
		return float64(len(b)-1) / (b[len(b)-1] - b[0])
	}).max(), len(doneS))
	res.set("heap_mb", heap, 1)
	res.set("setup_s", setups.median(), len(setups))
	if !traced {
		return res, nil
	}

	var tracedLat, plainLat series
	for _, o := range open {
		if o.err != nil {
			continue
		}
		if o.traced {
			tracedLat.addDur(o.lat, time.Millisecond)
		} else {
			plainLat.addDur(o.lat, time.Millisecond)
		}
	}
	// Probe the layers on each class's pooled inputs with a machine of
	// the benchmark's own, now that the server is idle.
	m, err := transport.NewReal(transport.RealConfig{Procs: 2, Params: sim.CM5Params()})
	if err != nil {
		return nil, err
	}
	for ci, c := range pools {
		for i := range c.masks {
			in := probeInput{l: c.l, global: c.payloads[i], locals: dist.Scatter(c.l, c.payloads[i]),
				maskLocals: dist.Scatter(c.l, c.masks[i]), opt: pack.Options{Scheme: c.scheme}, req: int64(ci)}
			if c.scheme == pack.SchemeCMS && c.kind == serve.JobUnpack {
				in.opt.Scheme = pack.SchemeCSS
			}
			if err := probeLayers(m, tr, in); err != nil {
				return nil, fmt.Errorf("%s: %w", c.tenant, err)
			}
		}
	}
	setLayerQuantiles(res, tr)
	submit := tr.durations("serve.Submit", time.Microsecond)
	res.set("serve.submit_us_p50", submit.median(), len(submit))
	res.set("serve.open_ms_p50", openS.median(), len(openS))
	res.set("serve.open_ms_p99", openS.quantile(math.Min(0.99, 1-10/float64(len(openS)))), len(openS))
	res.set("serve.queue_ms_p50", queueS.median(), len(queueS))
	res.set("serve.queue_ms_p99", queueS.tail(), len(queueS))
	res.set("serve.service_ms_p50", serviceS.median(), len(serviceS))
	res.set("serve.service_ms_p99", serviceS.tail(), len(serviceS))
	res.set("serve.rejected", float64(rejected), res.attempted)
	res.set("serve.errors", float64(errored), res.attempted)
	var hits, misses, plans int
	for _, c := range pools {
		st := srv.TenantPlanStats(c.tenant)
		hits, misses, plans = hits+st.Hits, misses+st.Misses, plans+st.Plans
	}
	res.set("serve.plan_hit_ratio", float64(hits)/float64(max(1, hits+misses)), hits+misses)
	res.set("serve.plans_cached", float64(plans), len(pools))
	done := len(open) - rejected
	res.set("pack.alloc_kb_per_call", float64(allocB)/1024/float64(max(1, done)), done)
	res.set("pack.mallocs_per_call", float64(mallocs)/float64(max(1, done)), done)
	res.set("pack.gc_cycles", float64(gcs), done)
	res.set("gen.late_ms_max", float64(late)/float64(time.Millisecond), len(open))
	res.set("trace.overhead_frac", overheadFrac(tracedLat, plainLat), len(tracedLat))
	return res, nil
}
