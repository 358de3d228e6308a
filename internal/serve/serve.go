// Package serve is the persistent sweep service behind cmd/hxserved: an
// HTTP API in front of the parallel harness, with the checkpoint store
// (PR 6) as a content-addressed result cache.
//
// The API surface:
//
//	POST /v1/sweeps            submit an experiment; returns a job ID
//	GET  /v1/jobs/{id}         job status
//	GET  /v1/jobs/{id}/events  structured progress stream (NDJSON)
//	GET  /v1/jobs/{id}/result.csv   finished results, byte-identical to hxsweep
//	GET  /v1/jobs/{id}/result.json  finished results + run manifest
//	GET  /v1/cache/stats       store / singleflight / job-registry counters
//
// The request schema IS hyperx.Experiment (Request is an alias): the
// daemon decodes the body into the same value cmd/hxsweep's flags fill,
// so defaults, validation, the job key, execution and the CSV shape are
// the facade's, shared with the CLI — this package adds only the
// registry, the queue and HTTP.
//
// Identity is content-addressed end to end: a job's ID is the hash of
// Experiment.Key — the concatenated checkpoint keys of its cells — so
// resubmitting a finished experiment attaches to the completed job (or,
// after a restart, replays cell-by-cell out of the store in
// microseconds, with the manifest's provenance saying so), and N
// concurrent submissions of the same experiment dedup to one
// computation — first at the registry (same job), then per cell at the
// harness singleflight group (hyperx.SweepOpts.Flight) for jobs that
// merely overlap.
//
// Concurrency discipline: this package is in the determinism scope but
// carries the noconc carve-out (like internal/shard) — its goroutines
// and channels are the serving layer, on the harness side of the
// in-instance/no-concurrency line. Wall-clock and global-RNG bans apply
// in full: job timestamps flow through an injectable clock (Options.Now)
// with the single real-time default waived explicitly, and simulation
// results never depend on either.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"hyperx"
	"hyperx/internal/harness"
)

// Options configures a Server. The zero value serves with no persistent
// cache, GOMAXPROCS harness workers, and two job executors.
type Options struct {
	// Store is the content-addressed result cache shared by every job.
	// When nil, CheckpointDir (if set) is opened as the store; when both
	// are empty the service still dedups in memory (registry +
	// singleflight) but cold-starts empty on restart.
	Store         *hyperx.CheckpointStore
	CheckpointDir string

	// Workers is the harness pool size per job (0 = GOMAXPROCS); Shards
	// is the default per-simulation shard count applied when a request
	// leaves Opts.Shards at 0. Shards is excluded from cache keys, so
	// this server-side default never changes a job's identity.
	Workers int
	Shards  int

	// QueueDepth bounds the submit queue (default 32): submissions
	// beyond it are refused with 503 rather than accepted into an
	// unbounded backlog. Executors is the number of jobs run
	// concurrently (default 2).
	QueueDepth int
	Executors  int

	// Now is the clock for job timestamps; nil means real time. Tests
	// inject a fake so the package stays off the wall clock.
	Now func() time.Time

	// BeforeRun, when non-nil, is called synchronously by an executor
	// after a job transitions to running and before its computation
	// starts. It is a test seam: the suite parks the executor here to
	// observe queued/running states and drain semantics without timing
	// assumptions (the simulations are far too fast to race against).
	// Production servers leave it nil.
	BeforeRun func(kind string)
}

// Server owns the job registry, the bounded queue, and the executor
// pool. Create with New, mount Handler, and Shutdown to drain.
type Server struct {
	opts   Options
	store  *hyperx.CheckpointStore
	flight *harness.Flight

	mu       sync.Mutex
	draining bool
	jobs     map[string]*job // by ID
	byKey    map[string]*job // by full canonical key (collision-proof)
	jobList  []*job          // insertion order — the iterable view (no map ranges)
	queue    chan *job

	wg sync.WaitGroup
}

// New builds a Server and starts its executors. The executors run until
// Shutdown; jobs they execute use context.Background() deliberately —
// draining means running jobs finish and persist their cells.
func New(opts Options) (*Server, error) {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 32
	}
	if opts.Executors <= 0 {
		opts.Executors = 2
	}
	store := opts.Store
	if store == nil && opts.CheckpointDir != "" {
		var err error
		store, err = hyperx.OpenCheckpointDir(opts.CheckpointDir)
		if err != nil {
			return nil, fmt.Errorf("serve: opening checkpoint store: %w", err)
		}
	}
	s := &Server{
		opts:   opts,
		store:  store,
		flight: harness.NewFlight(),
		jobs:   map[string]*job{},
		byKey:  map[string]*job{},
		queue:  make(chan *job, opts.QueueDepth),
	}
	for i := 0; i < opts.Executors; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s, nil
}

func (s *Server) now() time.Time {
	if s.opts.Now != nil {
		return s.opts.Now()
	}
	return time.Now() //hxlint:allow nodeterm — serving-layer timestamps only; results never depend on them, and tests inject Options.Now
}

func (s *Server) executor() {
	defer s.wg.Done()
	for j := range s.queue {
		if !j.take(s.now()) {
			continue // cancelled while queued
		}
		s.runJob(context.Background(), j)
	}
}

// Shutdown drains the service: no new submissions, still-queued jobs
// report cancelled, running jobs complete (and persist their cells to
// the store, so a restart serves them from cache). It returns when the
// executors are idle or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
	drain:
		for {
			select {
			case j := <-s.queue:
				j.cancelQueued(s.now())
			default:
				break drain
			}
		}
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// submit registers a request, deduplicating on the canonical job key: a
// live or completed job with the same key is returned as-is (the cache
// hit path), a failed or cancelled one is replaced by a fresh attempt.
func (s *Server) submit(req *Request) (*job, int, error) {
	key := req.Key()
	id := jobID(key)

	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.byKey[key]; j != nil {
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		if state != stateFailed && state != stateCancelled {
			return j, http.StatusOK, nil // same experiment: attach, never recompute
		}
	}
	if s.draining {
		return nil, http.StatusServiceUnavailable, fmt.Errorf("server is draining; not accepting jobs")
	}
	for { // fnv collision guard: distinct keys must get distinct IDs
		prev := s.jobs[id]
		if prev == nil || prev.key == key {
			break
		}
		id += "x"
	}
	j := newJob(id, key, req, s.now())
	select {
	case s.queue <- j:
	default:
		return nil, http.StatusServiceUnavailable, fmt.Errorf("job queue is full (depth %d); retry later", cap(s.queue))
	}
	if prev := s.byKey[key]; prev != nil {
		// Replacing a failed/cancelled attempt: swap it out of the
		// iterable view so registry counts describe current jobs.
		for i, old := range s.jobList {
			if old == prev {
				s.jobList[i] = j
				break
			}
		}
	} else {
		s.jobList = append(s.jobList, j)
	}
	s.jobs[j.id] = j
	s.byKey[key] = j
	return j, http.StatusAccepted, nil
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/result.csv", s.handleResultCSV)
	mux.HandleFunc("GET /v1/jobs/{id}/result.json", s.handleResultJSON)
	mux.HandleFunc("GET /v1/cache/stats", s.handleCacheStats)
	return mux
}

type errBody struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errBody{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// JobStatus is the GET /v1/jobs/{id} body (and the submit response).
type JobStatus struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`

	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`

	// JobsDone/JobsTotal track harness progress (cells resolved so far);
	// CachedJobs counts cells served from the store or shared via
	// singleflight rather than simulated by this job.
	JobsDone   int `json:"jobs_done"`
	JobsTotal  int `json:"jobs_total"`
	CachedJobs int `json:"cached_jobs"`
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		Kind:      j.req.Kind,
		State:     j.state,
		Error:     j.errMsg,
		CreatedAt: j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	for i := range j.events {
		if j.events[i].Cached {
			st.CachedJobs++
		}
	}
	if n := len(j.events); n > 0 {
		st.JobsDone = j.events[n-1].Done
		st.JobsTotal = j.events[n-1].Total
	}
	return st
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := parseRequest(r.Body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	j, code, err := s.submit(req)
	if err != nil {
		writeErr(w, code, err.Error())
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, code, j.status())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// streamLine is one NDJSON record on the events stream: either a
// progress event (Event set) or a state transition (State set). The
// stream ends with the terminal state line.
type streamLine struct {
	State string         `json:"state,omitempty"`
	Error string         `json:"error,omitempty"`
	Event *harness.Event `json:"event,omitempty"`
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	idx := 0
	lastState := ""
	for {
		evs, state, errMsg, notify := j.eventsSince(idx)
		for i := range evs {
			enc.Encode(streamLine{Event: &evs[i]})
		}
		idx += len(evs)
		if state != lastState {
			enc.Encode(streamLine{State: state, Error: errMsg})
			lastState = state
		}
		if flusher != nil {
			flusher.Flush()
		}
		if terminal(state) {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

// resultReady returns the job if it is done, otherwise writes the
// appropriate error: 404 unknown, 409 still pending/running, 500 failed.
func (s *Server) resultReady(w http.ResponseWriter, r *http.Request) *job {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, "no such job")
		return nil
	}
	j.mu.Lock()
	state, errMsg := j.state, j.errMsg
	j.mu.Unlock()
	switch state {
	case stateDone:
		return j
	case stateFailed:
		writeErr(w, http.StatusInternalServerError, "job failed: "+errMsg)
	case stateCancelled:
		writeErr(w, http.StatusGone, "job cancelled: "+errMsg)
	default:
		writeErr(w, http.StatusConflict, "job is "+state+"; result not ready")
	}
	return nil
}

func (s *Server) handleResultCSV(w http.ResponseWriter, r *http.Request) {
	j := s.resultReady(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	// Terminal jobs are immutable; no lock needed to read results.
	j.req.WriteCSV(w, j.result)
}

// ResultJSON is the GET /v1/jobs/{id}/result.json body: the structured
// results for the job's kind (hyperx.Result's curves / grid / points)
// plus the harness manifest (whose provenance block records cached_jobs /
// resumed_from for cache-served runs).
type ResultJSON struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	hyperx.Result
	Manifest *hyperx.Manifest `json:"manifest,omitempty"`
}

func (s *Server) handleResultJSON(w http.ResponseWriter, r *http.Request) {
	j := s.resultReady(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, ResultJSON{
		ID:       j.id,
		Kind:     j.req.Kind,
		Result:   j.result,
		Manifest: j.manifest,
	})
}

// CacheStatsBody is the GET /v1/cache/stats body: the persistent store
// (nil when serving without one), the in-process singleflight counters,
// and the job registry broken down by state.
type CacheStatsBody struct {
	Store  *hyperx.CacheStats `json:"store,omitempty"`
	Flight FlightStats        `json:"flight"`
	Jobs   JobCounts          `json:"jobs"`
}

// FlightStats reports the singleflight group: Computes is the number of
// cell computations that actually ran, Shared the number served by
// joining one in flight.
type FlightStats struct {
	Computes uint64 `json:"computes"`
	Shared   uint64 `json:"shared"`
}

// JobCounts is the registry by state.
type JobCounts struct {
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
}

func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	body := CacheStatsBody{
		Flight: FlightStats{Computes: s.flight.Computes(), Shared: s.flight.Shared()},
	}
	if s.store != nil {
		st, err := s.store.Stats()
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "reading store: "+err.Error())
			return
		}
		body.Store = &st
	}
	s.mu.Lock()
	for _, j := range s.jobList {
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		switch state {
		case stateQueued:
			body.Jobs.Queued++
		case stateRunning:
			body.Jobs.Running++
		case stateDone:
			body.Jobs.Done++
		case stateFailed:
			body.Jobs.Failed++
		case stateCancelled:
			body.Jobs.Cancelled++
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, body)
}
