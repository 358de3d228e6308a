package hyperx

import (
	"context"
	"fmt"
	"io"

	"hyperx/internal/harness"
	"hyperx/internal/topology"
)

// Manifest is the observability record of a parallel run: pool shape,
// wall time, and per-job wall time / simulated cycles / events executed /
// events-per-second. See internal/harness for field documentation; write
// it with its WriteJSON method.
type Manifest = harness.Manifest

// SweepOpts configures the parallel execution of a sweep; it does not
// affect the measured results, only how fast they arrive and what gets
// reported along the way.
type SweepOpts struct {
	// Workers bounds the worker pool (the -j flag of cmd/hxsweep);
	// 0 means GOMAXPROCS. Results are bit-identical at any worker count.
	Workers int
	// Fork, when non-nil, switches a sweep to warm-fork execution: each
	// (pattern, algorithm) curve becomes one job that builds a single
	// instance, warms it, snapshots it, and restores per load point (see
	// ForkOpts for its determinism contract). Parallelism then spans
	// curves rather than points. It is the RunLoadSweepParallel spelling
	// of Experiment.Fork, which wins when both are set.
	Fork *ForkOpts

	// Store, when non-nil, persists every completed result and serves
	// already-present results from it (OpenCheckpointDir opens one), so a
	// killed sweep rerun with identical flags resumes where it stopped
	// and still emits a byte-identical CSV. The manifest marks served
	// jobs as cached and records the directory in its provenance block.
	// The sweep service passes its long-lived store here so cache-access
	// counters aggregate across every job the daemon runs.
	Store *CheckpointStore

	// Flight, when non-nil, deduplicates concurrent identical cell
	// computations across sweeps sharing the group: each cell's
	// compute-and-save runs under its checkpoint key, so two overlapping
	// service jobs submitted simultaneously simulate every shared cell
	// exactly once. Jobs served by another sweep's in-flight computation
	// are marked cached in the manifest, like store hits.
	Flight *harness.Flight

	// OnEvent, when non-nil, receives a structured progress event per
	// resolved job — what cmd/hxsweep prints to stderr and the service
	// streams to clients. See harness.Event.
	OnEvent func(harness.Event)
}

// stampFaults records the injected fault set on the manifest, so every
// result file names the exact links that were dead while it was produced.
// No-op for pristine configurations (a nil set).
func stampFaults(fs *topology.FaultSet, m *Manifest) {
	if fs != nil {
		m.Faults = fs.Strings()
	}
}

// stampProvenance fills the manifest's provenance block: the execution
// mode, the fork parameters when forking, and the checkpoint origin of
// any cached jobs. A plain cold run with no store leaves the block nil
// (the historical manifest shape).
func stampProvenance(m *Manifest, mode string, x *Experiment, store *CheckpointStore, rr *harness.RunResult) {
	cached := 0
	for _, jr := range rr.Jobs {
		if jr.Done && jr.Outcome.Cached {
			cached++
		}
	}
	if mode == "cold" && store == nil && cached == 0 {
		return
	}
	p := &harness.Provenance{Mode: mode, CachedJobs: cached}
	if x.Fork != nil {
		fk := x.fork()
		p.WarmSeed = x.Config.Seed
		p.ForkCycles = fk.WarmCycles
		p.ForkLoad = fk.WarmLoad
		p.ForkSettle = fk.Settle
	}
	if store != nil {
		p.ResumedFrom = store.Dir()
	}
	m.Provenance = p
}

// record is a persisted cell result (pointRecord, curveRecord,
// thptRecord — their JSON is the on-disk checkpoint payload): all the
// runner needs of one is the harness outcome it stands for.
type record interface{ outcome() harness.Outcome }

func (s simStats) outcome(value any, saturated bool) harness.Outcome {
	return harness.Outcome{Saturated: saturated, Cycles: s.Cycles, Events: s.Events,
		Delivered: s.Delivered, Dropped: s.Dropped, Value: value}
}

func (r *pointRecord) outcome() harness.Outcome { return r.Stats.outcome(r.Point, r.Point.Saturated) }
func (r *curveRecord) outcome() harness.Outcome { return r.Stats.outcome(r.Points, false) }
func (r *thptRecord) outcome() harness.Outcome  { return r.Stats.outcome(r.Value, false) }

// cell is one independent simulation of an experiment — the unit that is
// content-addressed, cached, deduplicated in flight and scheduled on the
// pool. It is plain data: enumerating cells, whether to run them or only
// to derive the job key, builds no closures.
type cell struct {
	curve, point int     // where the value lands in the assembled result
	cfg          Config  // the configuration simulated (algorithm and fault count set)
	pattern      string  // traffic pattern
	load         float64 // offered load (unused by throughput and whole-curve cells)
	key          string  // checkpoint key: the cell's content address
}

// plan is everything that distinguishes one way of executing an
// experiment from another — which cells a curve has, what one is called,
// how one is simulated and persisted, how the values become a Result.
// Experiment.Run owns everything else (store, flight, harness, manifest),
// so a new kind is an enumerator plus an assembler, not another driver.
// Plans see the defaulted Experiment (Config and Opts defaults applied).
type plan struct {
	jobTag    string // what Experiment.Key files the plan's jobs under
	mode      string // provenance mode stamped on the manifest
	earlyStop bool   // a curve's cells are ascending loads; it ends at its first saturation

	// cells expands one curve — c arrives with curve, cfg and pattern
	// set — into its cells, in ascending point order.
	cells func(x *Experiment, c cell, visit func(cell))
	label func(c cell) string

	// compute simulates one cell; blank is the empty record a store hit
	// is decoded into.
	compute func(ctx context.Context, x *Experiment, c cell) (record, error)
	blank   func() record

	// assemble turns the completed cells' values, by [curve][point], into
	// the Result.
	assemble func(x *Experiment, vals [][]any) (Result, error)
	csv      func(w io.Writer, res Result) error
}

// plan selects the execution plan of a (normalized or zero-Kind)
// experiment.
func (e *Experiment) plan() *plan {
	switch {
	case e.Kind == "throughput":
		return thptPlan
	case e.Kind == "resilience":
		return resiliencePlan
	case e.Fork == nil:
		return coldPlan
	}
	return forkPlan
}

// eachCell enumerates the experiment's cells under plan p: curves in
// pattern-major order (the order every output uses), points ascending.
// It is the only enumeration of any kind's cells — Run schedules what it
// yields and Key concatenates the yielded keys.
func (e *Experiment) eachCell(p *plan, visit func(cell)) {
	for pi, pat := range e.Patterns {
		for ai, alg := range e.Algorithms {
			c := cell{curve: pi*len(e.Algorithms) + ai, cfg: e.Config, pattern: pat}
			c.cfg.Algorithm = alg
			p.cells(e, c, visit)
		}
	}
}

// fork returns the experiment's fork methodology with defaults applied;
// a nil Fork is the zero ForkOpts, which only ever names a cold sweep's
// curves (see Key).
func (e *Experiment) fork() ForkOpts {
	var fk ForkOpts
	if e.Fork != nil {
		fk = *e.Fork
	}
	return fk.withDefaults(e.Opts)
}

// computePoint simulates one cold load point — the cell of both the cold
// sweep and the resilience experiment, which therefore share cache
// entries for identical simulations.
func computePoint(ctx context.Context, x *Experiment, c cell) (record, error) {
	pt, st, err := runLoadPointCtx(ctx, c.cfg, c.pattern, c.load, x.Opts)
	return &pointRecord{Point: pt, Stats: st}, err
}

func blankPoint() record { return new(pointRecord) }

func sweepCSV(w io.Writer, res Result) error { return WriteSweepCSV(w, res.Curves) }

// assembleCurves names the experiment's curves in cell.curve order and
// fills each from its cells' values.
func assembleCurves(x *Experiment, vals [][]any, points func(cells []any) []LoadPoint) (Result, error) {
	curves := make([]Curve, 0, len(vals))
	for _, pat := range x.Patterns {
		for _, alg := range x.Algorithms {
			curves = append(curves, Curve{Pattern: pat, Algorithm: alg, Points: points(vals[len(curves)])})
		}
	}
	return Result{Curves: curves}, nil
}

// coldPlan is the cold load sweep: one cell per (pattern, algorithm,
// load), run speculatively and cancelled past a curve's first confirmed
// saturation; a point at or below the eventual curve end is never
// cancelled (see internal/harness).
var coldPlan = &plan{
	jobTag:    "sweep|cold",
	mode:      "cold",
	earlyStop: true,
	cells: func(x *Experiment, c cell, visit func(cell)) {
		for li, load := range x.Loads {
			c.point, c.load = li, load
			c.key = pointKey(c.cfg, c.pattern, load, x.Opts)
			visit(c)
		}
	},
	label: func(c cell) string {
		return fmt.Sprintf("%s/%s@%.3f", c.pattern, c.cfg.Algorithm, c.load)
	},
	compute: computePoint,
	blank:   blankPoint,
	assemble: func(x *Experiment, vals [][]any) (Result, error) {
		// Truncate each curve at its first saturated point — the serial
		// early-stop rule.
		return assembleCurves(x, vals, func(cells []any) (pts []LoadPoint) {
			for _, v := range cells {
				if v == nil {
					break
				}
				pts = append(pts, v.(LoadPoint))
				if pts[len(pts)-1].Saturated {
					break
				}
			}
			return pts
		})
	},
	csv: sweepCSV,
}

// forkPlan is the warm-fork load sweep: one cell per (pattern,
// algorithm) curve, forking a shared warm snapshot per load point
// serially in ascending load order (see ForkOpts for its determinism
// contract). The pool parallelizes across curves; the early-stop rule is
// the natural serial one inside each curve, so no speculation is needed
// or run.
var forkPlan = &plan{
	jobTag: "sweep|fork",
	mode:   "warm-fork",
	cells: func(x *Experiment, c cell, visit func(cell)) {
		c.key = curveKey(c.cfg, c.pattern, x.Loads, x.Opts, x.fork())
		visit(c)
	},
	label: func(c cell) string {
		return fmt.Sprintf("%s/%s curve[warm-fork]", c.pattern, c.cfg.Algorithm)
	},
	compute: func(ctx context.Context, x *Experiment, c cell) (record, error) {
		pts, st, err := runCurveWarmFork(ctx, c.cfg, c.pattern, x.Loads, x.Opts, x.fork())
		return &curveRecord{Points: pts, Stats: st}, err
	},
	blank: func() record { return new(curveRecord) },
	assemble: func(x *Experiment, vals [][]any) (Result, error) {
		return assembleCurves(x, vals, func(cells []any) []LoadPoint { return cells[0].([]LoadPoint) })
	},
	csv: sweepCSV,
}

// thptPlan is the Figure 6g grid: one cell per (pattern, algorithm) at
// offered load 1.0, each its own single-point curve.
var thptPlan = &plan{
	jobTag: "thpt",
	mode:   "cold",
	cells: func(x *Experiment, c cell, visit func(cell)) {
		c.key = thptKey(c.cfg, c.pattern, x.Opts)
		visit(c)
	},
	label: func(c cell) string {
		return fmt.Sprintf("%s/%s@1.000", c.pattern, c.cfg.Algorithm)
	},
	compute: func(ctx context.Context, x *Experiment, c cell) (record, error) {
		th, st, err := runThroughputCtx(ctx, c.cfg, c.pattern, x.Opts)
		return &thptRecord{Value: th, Stats: st}, err
	},
	blank: func() record { return new(thptRecord) },
	assemble: func(x *Experiment, vals [][]any) (Result, error) {
		grid := &ThroughputGrid{
			Patterns:   append([]string(nil), x.Patterns...),
			Algorithms: append([]string(nil), x.Algorithms...),
			Values:     make([][]float64, len(x.Patterns)),
		}
		for c, cells := range vals {
			pi := c / len(x.Algorithms)
			grid.Values[pi] = append(grid.Values[pi], cells[0].(float64))
		}
		return Result{Grid: grid}, nil
	},
	csv: func(w io.Writer, res Result) error { return WriteThroughputCSV(w, res.Grid) },
}

// resilienceFaults resolves the injected link list of every k =
// 0..MaxFaults (deterministic in (Widths, k, FaultSeed), so it reproduces
// exactly what the cells inject).
func resilienceFaults(x *Experiment) ([][]string, error) {
	sets := make([][]string, x.MaxFaults+1)
	for k := 1; k <= x.MaxFaults; k++ {
		fcfg := x.Config
		fcfg.Faults = k
		fs, err := BuildFaults(fcfg)
		if err != nil {
			return nil, fmt.Errorf("hyperx: resilience sweep k=%d: %w", k, err)
		}
		sets[k] = fs.Strings()
	}
	return sets, nil
}

// resiliencePlan is the graceful-degradation experiment: one curve per
// algorithm, one cell per fault count k = 0..MaxFaults at the fixed Load.
// Cells never early-stop — a saturated or lossy cell is itself the
// measurement. Config.Faults is inside the point key, so a cell is the
// same cache entry as the identical cold-sweep load point.
var resiliencePlan = &plan{
	jobTag: "res",
	mode:   "cold",
	cells: func(x *Experiment, c cell, visit func(cell)) {
		for k := 0; k <= x.MaxFaults; k++ {
			c.point, c.load, c.cfg.Faults = k, x.Load, k
			c.key = pointKey(c.cfg, c.pattern, c.load, x.Opts)
			visit(c)
		}
	},
	label: func(c cell) string {
		return fmt.Sprintf("%s/%s@%.2f k=%d", c.pattern, c.cfg.Algorithm, c.load, c.point)
	},
	compute: computePoint,
	blank:   blankPoint,
	assemble: func(x *Experiment, vals [][]any) (Result, error) {
		sets, err := resilienceFaults(x)
		if err != nil {
			return Result{}, err
		}
		var points []ResiliencePoint
		for ai, alg := range x.Algorithms {
			for k, v := range vals[ai] {
				points = append(points, ResiliencePoint{Algorithm: alg, Faults: k, FaultSet: sets[k], LoadPoint: v.(LoadPoint)})
			}
		}
		return Result{Points: points}, nil
	},
	csv: func(w io.Writer, res Result) error { return WriteResilienceCSV(w, res.Points) },
}

// Curve is one load-latency line of a Figure 6 panel: the sweep of one
// traffic pattern under one routing algorithm, truncated after its first
// saturated point exactly like the serial RunLoadSweep output.
type Curve struct {
	Pattern   string
	Algorithm string
	Points    []LoadPoint
}

// ThroughputGrid is the Figure 6g measurement: accepted throughput at
// full offered load for every pattern × algorithm cell, with
// Values[p][a] corresponding to Patterns[p] under Algorithms[a].
type ThroughputGrid struct {
	Patterns   []string
	Algorithms []string
	Values     [][]float64
}

// ResiliencePoint is one cell of the resilience experiment: one routing
// algorithm measured at a fixed offered load with Faults failed links
// injected. DeliveredFrac is the survival headline — the fraction of all
// packets injected over the run (warmup included) that reached their
// destination; fault-aware algorithms hold it at 1.0 while detect-and-drop
// baselines shed exactly the traffic that met a dead minimal hop.
type ResiliencePoint struct {
	Algorithm string
	Faults    int
	FaultSet  []string // the injected links, "rA.pA<->rB.pB"
	LoadPoint LoadPoint
}

// DeliveredFrac returns delivered/(delivered+dropped), or 1 when the run
// moved no packets at all.
func (p ResiliencePoint) DeliveredFrac() float64 {
	total := p.LoadPoint.Delivered + p.LoadPoint.Dropped
	if total == 0 {
		return 1
	}
	return float64(p.LoadPoint.Delivered) / float64(total)
}

// RunLoadSweepParallel measures the patterns × algorithms grid of
// load-latency curves on a bounded worker pool: Experiment.Run for kind
// "sweep". Every (pattern, algorithm, load) triple is an independent
// simulation seeded exactly as the serial path seeds it, so the returned
// curves are bit-identical to calling RunLoadSweep once per (pattern,
// algorithm) — at any worker count. po.Fork switches to warm-fork
// execution. Curves are returned in pattern-major order. Like every
// wrapper here, the arguments pass through Experiment.Normalize: empty
// lists take the kind's defaults and invalid ones are an error.
func RunLoadSweepParallel(ctx context.Context, cfg Config, patterns, algs []string, loads []float64, opts RunOpts, po SweepOpts) ([]Curve, *Manifest, error) {
	x := Experiment{Kind: "sweep", Config: cfg, Patterns: patterns, Algorithms: algs, Loads: loads, Opts: opts}
	res, m, err := x.Run(ctx, po)
	return res.Curves, m, err
}

// RunThroughputGrid measures saturated throughput (offered load 1.0) for
// every pattern × algorithm cell: Experiment.Run for kind "throughput".
// Each cell is seeded exactly as RunThroughput seeds it, so every Values
// entry is bit-identical to the corresponding serial call.
func RunThroughputGrid(ctx context.Context, cfg Config, patterns, algs []string, opts RunOpts, po SweepOpts) (*ThroughputGrid, *Manifest, error) {
	x := Experiment{Kind: "throughput", Config: cfg, Patterns: patterns, Algorithms: algs, Opts: opts}
	res, m, err := x.Run(ctx, po)
	return res.Grid, m, err
}

// RunResilienceSweep measures the graceful-degradation experiment —
// every algorithm × fault-count cell at one fixed offered load, for k =
// 0..maxFaults (at least 1) failed links: Experiment.Run for kind
// "resilience". Fault sets are drawn independently per k (each k uses the
// deterministic seeded selection of BuildFaults with the same FaultSeed),
// so the k axis is reproducible run to run. Points are returned grouped
// by algorithm in input order, ascending k.
func RunResilienceSweep(ctx context.Context, cfg Config, patternName string, algs []string, maxFaults int, load float64, opts RunOpts, po SweepOpts) ([]ResiliencePoint, *Manifest, error) {
	x := Experiment{Kind: "resilience", Config: cfg, Patterns: []string{patternName}, Algorithms: algs, MaxFaults: maxFaults, Load: load, Opts: opts}
	res, m, err := x.Run(ctx, po)
	return res.Points, m, err
}
