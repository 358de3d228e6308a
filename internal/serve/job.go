package serve

import (
	"context"
	"sync"
	"time"

	"hyperx"
	"hyperx/internal/harness"
)

// Job lifecycle: queued → running → done | failed, or queued →
// cancelled (graceful shutdown drains the queue without starting new
// work). A terminal job stays in the registry — its results ARE the
// serving layer's hot cache — and a resubmission of the same canonical
// key attaches to it instead of recomputing.
const (
	stateQueued    = "queued"
	stateRunning   = "running"
	stateDone      = "done"
	stateFailed    = "failed"
	stateCancelled = "cancelled"
)

func terminal(state string) bool {
	return state == stateDone || state == stateFailed || state == stateCancelled
}

// job is one submitted experiment: its canonical identity, its place in
// the lifecycle, the structured progress events accumulated so far, and
// — once done — its results. All mutable fields are guarded by mu;
// notify is closed and replaced on every change so event streamers can
// wait without polling.
type job struct {
	id  string
	key string
	req *Request

	mu     sync.Mutex
	state  string
	errMsg string
	events []harness.Event
	notify chan struct{}

	created  time.Time
	started  time.Time
	finished time.Time

	result   hyperx.Result
	manifest *hyperx.Manifest
}

func newJob(id, key string, req *Request, now time.Time) *job {
	return &job{
		id:      id,
		key:     key,
		req:     req,
		state:   stateQueued,
		notify:  make(chan struct{}),
		created: now,
	}
}

// wake must be called with j.mu held: it releases every waiter and arms
// a fresh notification channel.
func (j *job) wake() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// appendEvent receives one structured harness progress event (the
// SweepOpts.OnEvent hook).
func (j *job) appendEvent(e harness.Event) {
	j.mu.Lock()
	j.events = append(j.events, e)
	j.wake()
	j.mu.Unlock()
}

// take transitions queued → running; it reports false when the job was
// cancelled while waiting in the queue.
func (j *job) take(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != stateQueued {
		return false
	}
	j.state = stateRunning
	j.started = now
	j.wake()
	return true
}

// cancelQueued marks a still-queued job cancelled (graceful shutdown).
func (j *job) cancelQueued(now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != stateQueued {
		return
	}
	j.state = stateCancelled
	j.errMsg = "cancelled: server shutting down before the job started"
	j.finished = now
	j.wake()
}

// finish records the outcome of a run.
func (j *job) finish(res hyperx.Result, m *hyperx.Manifest, err error, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.result, j.manifest = res, m
	if err != nil {
		j.state = stateFailed
		j.errMsg = err.Error()
	} else {
		j.state = stateDone
	}
	j.finished = now
	j.wake()
}

// eventsSince returns the events not yet seen by a streamer positioned
// at idx, the current state/error, and the channel that will be closed
// on the next change.
func (j *job) eventsSince(idx int) (evs []harness.Event, state, errMsg string, notify <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if idx < len(j.events) {
		evs = append(evs, j.events[idx:]...)
	}
	return evs, j.state, j.errMsg, j.notify
}

// runJob executes one job through the facade's single driver against the
// server's shared store and singleflight group. The run context is the
// server's base context: graceful shutdown deliberately does NOT cancel
// it — draining means running jobs complete and persist their cells.
func (s *Server) runJob(ctx context.Context, j *job) {
	if s.opts.BeforeRun != nil {
		s.opts.BeforeRun(j.req.Kind)
	}
	exp := *j.req
	if exp.Opts.Shards == 0 {
		exp.Opts.Shards = s.opts.Shards
	}
	res, manifest, err := exp.Run(ctx, hyperx.SweepOpts{
		Workers: s.opts.Workers,
		Store:   s.store,
		Flight:  s.flight,
		OnEvent: j.appendEvent,
	})
	j.finish(res, manifest, err, s.now())
}
