package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one
// operation share Op; Parent is the ID of the span that caused this one
// (0 for an operation's root). Start and End are nanoseconds since the
// tracer was created.
type span struct {
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; the benchmark writes them out when
// the run ends. A nil *tracer records nothing, which is how the
// untraced run and the untraced half of the overhead comparison work.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a started span; end closes it.
type open struct {
	tr    *tracer
	op    int64
	id    int64
	par   int64
	name  string
	start time.Time
}

// start opens a span under parent (nil for an operation's root span).
func (t *tracer) start(op int64, parent *open, name string) *open {
	if t == nil {
		return nil
	}
	o := &open{tr: t, op: op, name: name}
	if parent != nil {
		o.par = parent.id
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{})
	o.id = int64(len(t.spans))
	t.mu.Unlock()
	o.start = time.Now()
	return o
}

// end closes the span and returns its duration in milliseconds.
func (o *open) end() float64 {
	if o == nil {
		return 0
	}
	now := time.Now()
	t := o.tr
	t.mu.Lock()
	t.spans[o.id-1] = span{Op: o.op, ID: o.id, Parent: o.par, Name: o.name,
		Start: o.start.Sub(t.t0).Nanoseconds(), End: now.Sub(t.t0).Nanoseconds()}
	t.mu.Unlock()
	return ms(now.Sub(o.start))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// durations returns the length in milliseconds of every span with the
// given name, in recording order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns, for every span with the given name, its duration
// minus the part of that interval its child spans cover, in
// milliseconds.
func (t *tracer) selfTimes(name string) []float64 {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out = append(out, float64(s.End-s.Start-covered)/1e6)
	}
	return out
}
