// Package harness is the parallel experiment-execution engine behind the
// facade's RunLoadSweepParallel and RunThroughputGrid. It turns a sweep
// specification (traffic patterns × routing algorithms × offered loads)
// into independent jobs and runs them on a bounded worker pool, with two
// guarantees the paper's methodology depends on:
//
// Determinism. Every job is a closed simulation instance whose entire
// random universe derives from the job's own seed (see internal/rng), so
// worker count and scheduling order cannot perturb any result: a sweep at
// -j 8 is bit-identical to the same sweep at -j 1, which in turn matches
// the legacy serial runners. The engine assigns results by job index, not
// completion order, so output ordering is deterministic too.
//
// Early stop without lost points. A load-latency curve ends at its first
// saturated point (Section 6.1), which serially means "stop sweeping this
// curve". In parallel the engine instead runs points speculatively and,
// when a point at index i on a curve reports saturation, cancels — via
// context, honoured by sim.Kernel.RunCtx — only points at strictly higher
// indices on that curve. Points at or below the eventual curve end are
// therefore always run to completion, so truncating each curve at its
// first saturated point yields exactly the serial output; speculative
// points past it are discarded (and recorded as cancelled in the
// manifest).
//
// Observability. Each job is timed and its kernel counters sampled
// (simulated cycles, events executed, events/sec); the aggregate plus one
// record per job forms a Manifest that can be serialized to JSON, and an
// optional progress writer receives a one-line status after every job
// completes.
package harness

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Outcome is what a job's Run function reports on success. Value carries
// the measurement itself (e.g. a load point); the remaining fields feed
// the observability layer and the early-stop logic.
type Outcome struct {
	Saturated bool   // point saturated: cancels higher points on the curve
	Cached    bool   // served from a checkpoint store, not simulated now
	Cycles    int64  // simulated cycles at the end of the run
	Events    uint64 // kernel events executed (sim.Kernel.Executed)
	Delivered uint64 // packets delivered over the run (fault observability)
	Dropped   uint64 // packets lost to fault-induced drops
	Value     any    // the measurement (facade-defined)
}

// Job is one independent simulation instance in a sweep. Curve groups
// jobs that form a single load-latency line (one pattern × algorithm);
// Point is the job's ascending position along that curve — the early-stop
// rule cancels points strictly past a curve's first saturated Point. Run
// must honour ctx cancellation (return ctx.Err()) and must not share
// mutable state with other jobs.
type Job struct {
	Curve int    // curve (pattern × algorithm) this job belongs to
	Point int    // index along the curve, ascending offered load
	Label string // human-readable identity, e.g. "UR/DimWAR@0.30"
	Seed  uint64 // seed of the job's random universe (recorded in the manifest)
	Run   func(ctx context.Context) (Outcome, error)
}

// Options configures a Run.
type Options struct {
	// Workers bounds the pool; 0 or negative means runtime.GOMAXPROCS(0).
	Workers int
	// EarlyStop enables per-curve speculative cancellation past the first
	// saturated point. Leave false for grids whose cells are independent.
	EarlyStop bool
	// OnEvent, when non-nil, receives a structured progress event after
	// each job resolves — what cmd/hxsweep prints as a status line and
	// the hxserved job-event endpoint streams. Calls are serialized by the
	// engine and arrive in completion order, not job order.
	OnEvent func(Event)
}

// Event is one structured progress notification: the fate of a single
// job plus the run-wide counters at that moment. It is what a service
// client sees while a sweep is in flight, so it carries identity (label,
// curve, point), outcome (status, cached, saturated), cost (wall time,
// simulated cycles, kernel events), and the done/cancelled/failed/total
// frontier of the whole run.
type Event struct {
	Label     string  `json:"label"`
	Curve     int     `json:"curve"`
	Point     int     `json:"point"`
	Status    string  `json:"status"` // "ok", "saturated", "skipped", "cancelled", or "failed"
	Cached    bool    `json:"cached,omitempty"`
	Saturated bool    `json:"saturated,omitempty"`
	WallSecs  float64 `json:"wall_seconds"`
	SimCycles int64   `json:"sim_cycles,omitempty"`
	Events    uint64  `json:"events,omitempty"`

	Done      int `json:"done"`
	Cancelled int `json:"cancelled"`
	Failed    int `json:"failed"`
	Total     int `json:"total"`
}

// JobResult pairs a job with what happened to it. Exactly one of Done,
// Cancelled, or a non-nil Err holds for every job of a finished run.
type JobResult struct {
	Job       Job
	Outcome   Outcome // valid only when Done
	Err       error   // the job's own failure (not cancellation)
	Done      bool    // ran to completion
	Cancelled bool    // skipped or interrupted by early stop / run abort

	wall time.Duration // wall time of the completed run, for the manifest
}

// RunResult is the full record of one engine invocation: per-job results
// in input order plus the aggregated manifest.
type RunResult struct {
	Jobs     []JobResult
	Manifest *Manifest
}

// curveState tracks the saturation frontier of one curve: the lowest
// point index that reported saturation, and cancel handles for the
// curve's currently running jobs.
type curveState struct {
	mu      sync.Mutex
	minSat  int // lowest saturated point index seen, or math.MaxInt
	cancels map[int]context.CancelFunc
}

// Run executes jobs on a bounded worker pool and blocks until every job
// has completed, been cancelled, or the run has aborted. Jobs are started
// in slice order (callers sort for good speculation order: ascending
// Point, then Curve). On a job failure the whole run is cancelled and the
// first failure, in job order, is returned alongside the partial result;
// ctx cancellation likewise aborts the run and returns ctx.Err().
func Run(ctx context.Context, jobs []Job, opts Options) (*RunResult, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	curves := make(map[int]*curveState)
	for _, j := range jobs {
		if curves[j.Curve] == nil {
			curves[j.Curve] = &curveState{minSat: math.MaxInt, cancels: make(map[int]context.CancelFunc)}
		}
	}

	rr := &RunResult{Jobs: make([]JobResult, len(jobs))}
	for i, j := range jobs {
		rr.Jobs[i].Job = j
	}

	var (
		mu       sync.Mutex // progress counters and failure bookkeeping
		done     int
		canceled int
		failed   int
		started  = time.Now()
	)
	progress := func(idx int, status string, wall time.Duration, out Outcome) {
		if opts.OnEvent == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		opts.OnEvent(Event{
			Label:     jobs[idx].Label,
			Curve:     jobs[idx].Curve,
			Point:     jobs[idx].Point,
			Status:    status,
			Cached:    out.Cached,
			Saturated: out.Saturated,
			WallSecs:  wall.Seconds(),
			SimCycles: out.Cycles,
			Events:    out.Events,
			Done:      done,
			Cancelled: canceled,
			Failed:    failed,
			Total:     len(jobs),
		})
	}

	next := make(chan int)
	go func() {
		defer close(next)
		for i := range jobs {
			select {
			case next <- i:
			case <-runCtx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				if runCtx.Err() != nil {
					// Run aborted while this index was in flight.
					rr.Jobs[idx].Cancelled = true
					mu.Lock()
					canceled++
					mu.Unlock()
					continue
				}
				j := jobs[idx]
				cs := curves[j.Curve]

				cs.mu.Lock()
				if opts.EarlyStop && j.Point > cs.minSat {
					cs.mu.Unlock()
					rr.Jobs[idx].Cancelled = true
					mu.Lock()
					canceled++
					mu.Unlock()
					progress(idx, "skipped", 0, Outcome{})
					continue
				}
				jctx, jcancel := context.WithCancel(runCtx)
				cs.cancels[j.Point] = jcancel
				cs.mu.Unlock()

				start := time.Now()
				out, err := j.Run(jctx)
				wall := time.Since(start)

				cs.mu.Lock()
				delete(cs.cancels, j.Point)
				cs.mu.Unlock()
				interrupted := jctx.Err() != nil
				jcancel()

				switch {
				case err != nil && interrupted:
					// Aborted by early stop or run shutdown, not a failure.
					rr.Jobs[idx].Cancelled = true
					mu.Lock()
					canceled++
					mu.Unlock()
					progress(idx, "cancelled", wall, Outcome{})
				case err != nil:
					rr.Jobs[idx].Err = err
					mu.Lock()
					failed++
					mu.Unlock()
					cancelRun() // fail fast: abort the rest of the run
					progress(idx, "failed", wall, Outcome{})
				default:
					rr.Jobs[idx].Done = true
					rr.Jobs[idx].Outcome = out
					rr.Jobs[idx].wall = wall
					status := "ok"
					if out.Saturated {
						status = "saturated"
						if opts.EarlyStop {
							cs.mu.Lock()
							if j.Point < cs.minSat {
								cs.minSat = j.Point
								// Cancel doomed speculative points in ascending
								// order: correctness doesn't depend on it (every
								// p > j.Point gets cancelled either way), but a
								// deterministic order keeps cancellation traces
								// reproducible.
								points := make([]int, 0, len(cs.cancels))
								for p := range cs.cancels {
									points = append(points, p)
								}
								sort.Ints(points)
								for _, p := range points {
									if p > j.Point {
										cs.cancels[p]()
									}
								}
							}
							cs.mu.Unlock()
						}
					}
					mu.Lock()
					done++
					mu.Unlock()
					progress(idx, status, wall, out)
				}
			}
		}()
	}
	wg.Wait()

	// Jobs the feeder never handed out (run aborted early).
	for i := range rr.Jobs {
		if !rr.Jobs[i].Done && !rr.Jobs[i].Cancelled && rr.Jobs[i].Err == nil {
			rr.Jobs[i].Cancelled = true
		}
	}

	rr.Manifest = buildManifest(rr, workers, started, time.Since(started))

	// Report the first failure in job order, deterministically.
	for _, jr := range rr.Jobs {
		if jr.Err != nil {
			return rr, fmt.Errorf("harness: job %s: %w", jr.Job.Label, jr.Err)
		}
	}
	if err := ctx.Err(); err != nil {
		return rr, err
	}
	return rr, nil
}

// SortForSpeculation orders jobs for good early-stop behaviour: ascending
// point index first (cheap, likely-unsaturated loads across all curves),
// then curve, so workers establish every curve's saturation frontier
// before burning time on deep-saturated high-load points.
func SortForSpeculation(jobs []Job) {
	sort.SliceStable(jobs, func(a, b int) bool {
		if jobs[a].Point != jobs[b].Point {
			return jobs[a].Point < jobs[b].Point
		}
		return jobs[a].Curve < jobs[b].Curve
	})
}
