package main

import (
	"sort"
	"sync"
	"time"
)

// span is one traced call the harness made into a layer. Spans are
// recorded from the benchmark's own files, around calls to exported
// functions; spans inside the program are a later change (ROADMAP item 5).
// Calls counts the calls an aggregated span stands for: the executor
// decorator folds its ~2·attempts Submit/Next timings into one span
// instead of recording hundreds of thousands.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Workload string `json:"workload"`
	Round    int    `json:"round"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Calls    int    `json:"calls,omitempty"`
}

// tracer keeps spans in memory until the child exits. A nil tracer
// records nothing, which is how the untraced rounds run the same code.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	round    int
	spans    []span
	// aggEnd is, per parent, where its last aggregated child ended, so
	// several aggregates under one parent tile instead of overlapping.
	aggEnd map[int]int64
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload, aggEnd: make(map[int]int64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// start opens a span under parent and returns its id (0 on a nil tracer).
func (t *tracer) start(parent int, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Workload: t.workload, Round: t.round,
		Name: name, StartNS: t.now(),
	})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// do traces one call.
func (t *tracer) do(parent int, name string, fn func()) {
	id := t.start(parent, name)
	fn()
	t.end(id)
}

// aggregate records a span that stands for calls calls totalling d. It
// is laid out from its parent's start (after any earlier aggregate), not
// where the calls really happened: only its length carries information.
func (t *tracer) aggregate(parent int, name string, d time.Duration, calls int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.now()
	if parent > 0 {
		start = t.spans[parent-1].StartNS
	}
	if e, ok := t.aggEnd[parent]; ok {
		start = e
	}
	t.aggEnd[parent] = start + int64(d)
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Workload: t.workload, Round: t.round,
		Name: name, StartNS: start, EndNS: start + int64(d), Calls: calls,
	})
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover. Children may overlap each
// other (concurrent calls) and may stick out of the parent (clock
// granularity); only the union of their intervals clipped to the parent
// is subtracted, so self time is never negative.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered int64
		edge := s.StartNS // everything before edge is already counted
		for _, k := range kids {
			lo, hi := k.StartNS, k.EndNS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.EndNS - s.StartNS) - covered
	}
	return self
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(self[s.ID])
	}
	return out
}
