package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one cell or one
// request share Trace, the ID of their root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the workload ends. It is used from
// one goroutine (the traced passes are serial and the client is closed
// loop); a nil tracer records nothing, which is the tracing-off path.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	trace := id
	if parent > 0 {
		trace = t.spans[parent-1].Trace
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

func (t *tracer) dur(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	s := t.spans[id-1]
	return time.Duration(s.End - s.Start)
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}

// selfTimes returns, per span name, duration minus the part child spans
// cover. Children of one parent never overlap here (one goroutine), so
// the covered part is their sum.
func (t *tracer) selfTimes() map[string]time.Duration {
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		covered[s.Parent] += s.End - s.Start
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - covered[s.ID])
	}
	return self
}

// write dumps the spans, with the sampled busy counters that are not
// spans (per-event calls are sampled, not bracketed) alongside.
func (t *tracer) write(path string, counters map[string]float64) error {
	b, err := json.MarshalIndent(struct {
		Spans    []span             `json:"spans"`
		Counters map[string]float64 `json:"counters"`
	}{t.spans, counters}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timerCost calibrates what one sampled measurement adds to the interval
// it brackets: the mean reading of an empty Now/Since pair, in ns.
func timerCost() float64 {
	const n = 200_000
	var sum time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sum += time.Since(t0)
	}
	return float64(sum) / n
}

// sampler times every sampleEvery-th call on a deterministic counter and
// scales up. Bracketing every call of a per-event entry point would cost
// more than the call.
type sampler struct {
	calls, samples uint64
	ns             int64
}

const sampleEvery = 16

// busy estimates the total time spent in the sampled calls, net of the
// timer's own cost.
func (s *sampler) busy(timerNS float64) time.Duration {
	if s.samples == 0 {
		return 0
	}
	net := float64(s.ns) - float64(s.samples)*timerNS
	if net < 0 {
		net = 0
	}
	return time.Duration(net * float64(s.calls) / float64(s.samples))
}

func (s *sampler) add(o sampler) {
	s.calls += o.calls
	s.samples += o.samples
	s.ns += o.ns
}
