package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: the benchmark wraps each call it
// makes into a module's public function in one. Spans of one operation
// share Req; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the traced run; they are written
// out once the run ends. A nil or disabled tracer records nothing, so
// the untraced run pays one branch per call site.
type tracer struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	next  int64
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on }

// reserve hands out the ID of a span whose children are recorded
// before it ends; 0 when tracing is off.
func (t *tracer) reserve() int64 {
	if !t.enabled() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a span under a reserved ID (0 allocates a fresh one)
// and returns the ID.
func (t *tracer) record(id, parent, req int64, name string, start, end time.Time) int64 {
	if !t.enabled() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.next++
		id = t.next
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// timed runs fn as a leaf span and returns its duration, which the
// caller may use whether or not tracing is on.
func (t *tracer) timed(parent, req int64, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.record(0, parent, req, name, start, end)
	return end.Sub(start)
}

// durations returns the recorded durations of every span with the
// given name, in unit.
func (t *tracer) durations(name string, unit time.Duration) series {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var s series
	for _, sp := range t.spans {
		if sp.Name == name {
			s.addDur(sp.dur(), unit)
		}
	}
	return s
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its children cover
// (overlapping children are counted once).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	out := make(map[string]time.Duration)
	for _, sp := range spans {
		out[sp.Name] += sp.dur() - covered(sp, children[sp.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	total, end := int64(0), parent.Start
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return time.Duration(total)
}

// write dumps every span as one JSON line to path, creating its
// directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
