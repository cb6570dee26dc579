package main

import (
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into the layers.
// A span has a name ("<layer>.<op>"), a start, an end and the span that
// caused it. Spans are folded into per-name aggregates as they close
// rather than kept: a traced discovery sweep opens millions of spans,
// and the aggregates are all the report needs.
//
// A nil *tracer is the untraced mode: begin returns nil and every span
// method is a no-op on a nil span, so the measured end-to-end phase
// pays one nil check per call site and nothing else.
type tracer struct {
	epoch time.Time

	mu  sync.Mutex
	ops map[string]*opStat
}

// opStat aggregates every closed span of one name.
type opStat struct {
	count int64
	total time.Duration
	self  time.Duration // total minus the union of child intervals
	// samples keeps each span's duration for names whose percentiles
	// are reported; they are the low-volume protocol calls.
	samples []time.Duration
}

// sampledOps are the span names whose per-call durations are kept.
var sampledOps = map[string]bool{
	"gossip.round":             true,
	"dtn.round":                true,
	"peerhood.refresh_now":     true,
	"community.refresh_groups": true,
	"community.online_members": true,
	"community.view_profile":   true,
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), ops: make(map[string]*opStat)}
}

// span is one open interval. Children register their intervals on the
// parent as they close; the parent's self time is its duration minus
// the union of those intervals, so children running in parallel on
// several scheduler workers are not double-counted.
type span struct {
	t      *tracer
	name   string
	parent *span
	start  int64

	mu   sync.Mutex
	kids [][2]int64
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span; parent may be nil.
func (t *tracer) begin(parent *span, name string) *span {
	if t == nil {
		return nil
	}
	return &span{t: t, name: name, parent: parent, start: t.now()}
}

// end closes the span and folds it into its name's aggregate.
func (s *span) end() {
	if s == nil {
		return
	}
	stop := s.t.now()
	s.mu.Lock()
	covered := unionLen(s.kids)
	s.kids = nil
	s.mu.Unlock()
	if s.parent != nil {
		s.parent.mu.Lock()
		s.parent.kids = append(s.parent.kids, [2]int64{s.start, stop})
		s.parent.mu.Unlock()
	}
	dur := time.Duration(stop - s.start)
	s.t.mu.Lock()
	st := s.t.ops[s.name]
	if st == nil {
		st = &opStat{}
		s.t.ops[s.name] = st
	}
	st.count++
	st.total += dur
	st.self += dur - time.Duration(covered)
	if sampledOps[s.name] {
		st.samples = append(st.samples, dur)
	}
	s.t.mu.Unlock()
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// op returns the aggregate for a span name (zero if none closed).
func (t *tracer) op(name string) opStat {
	if t == nil {
		return opStat{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.ops[name]; st != nil {
		return *st
	}
	return opStat{}
}

// spans is the total number of closed spans.
func (t *tracer) spans() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, st := range t.ops {
		n += st.count
	}
	return n
}

// quantile returns the q-quantile (0..1) of xs by nearest rank; xs is
// sorted in place. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs)-1) + 0.5)
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// durationsMS converts span samples to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
