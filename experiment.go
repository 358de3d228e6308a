package hyperx

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"hyperx/internal/harness"
)

// Experiment is one declarative experiment specification — the value
// cmd/hxsweep's flags and the sweep service's POST /v1/sweeps body both
// parse into, and the thing that is hashed into a service job ID. It owns
// defaulting and validation (Normalize), the canonical content address
// (Key), execution (Run) and the CSV shape of its results (WriteCSV), so
// the CLI and the daemon accept, reject, compute and print exactly the
// same experiments.
//
// As JSON, nested Config/RunOpts/ForkOpts use their Go field names as
// keys (case-insensitive), e.g.
// {"config": {"Widths": [4,4,4], "Algorithm": "DimWAR", "Seed": 7}}.
type Experiment struct {
	// Kind selects the experiment: "sweep" (default; one load-latency
	// panel), "throughput" (the Figure 6g saturated grid), or
	// "resilience" (algorithm × fault-count cells at one fixed load).
	Kind string `json:"kind,omitempty"`

	Config Config `json:"config"`

	// Patterns and Algorithms span the experiment grid; both default to
	// the cmd/hxsweep defaults for the kind. Resilience takes exactly
	// one pattern.
	Patterns   []string `json:"patterns,omitempty"`
	Algorithms []string `json:"algorithms,omitempty"`

	// Loads is the explicit sweep grid; Step generates one via LoadRange
	// (default 0.05). Mutually exclusive; sweep only. A curve holds at
	// most maxCurvePoints points either way.
	Loads []float64 `json:"loads,omitempty"`
	Step  float64   `json:"step,omitempty"`

	Opts RunOpts `json:"opts"`

	// Fork switches a sweep to warm-fork execution (see ForkOpts); sweep
	// only. A fork with no warmup is the cold sweep: Normalize drops an
	// all-zero one and rejects one that sets only WarmLoad or Settle.
	Fork *ForkOpts `json:"fork,omitempty"`

	// MaxFaults and Load parameterize the resilience experiment:
	// k = 0..MaxFaults failed links at offered load Load (default 0.5).
	MaxFaults int     `json:"max_faults,omitempty"`
	Load      float64 `json:"load,omitempty"`
}

// maxCurvePoints bounds one curve: a step finer than 1/maxCurvePoints (or
// a longer explicit grid, or a resilience curve past max_faults
// maxCurvePoints-1) is rejected rather than allocated — {"step": 1e-9}
// is a 10⁹-point request, not an experiment.
const maxCurvePoints = 1000

// The hxsweep defaults: an Experiment that says nothing runs the bare
// CLI's experiment.
var (
	defaultAlgorithms   = []string{"DOR", "VAL", "UGAL", "UGAL+", "DimWAR", "OmniWAR"}
	defaultThptPatterns = []string{"UR", "BC", "URBx", "URBy", "URBz", "S2", "DCR"}
)

// Normalize applies the kind's defaults and validates the experiment, so
// two specifications meaning the same experiment canonicalize to the same
// Key regardless of which defaults they spelled out. Every error is the
// caller's input being wrong (hxsweep exits 2 on it, hxserved answers
// 400). It is idempotent.
func (e *Experiment) Normalize() error {
	switch e.Kind {
	case "":
		e.Kind = "sweep"
	case "sweep", "throughput", "resilience":
	default:
		return fmt.Errorf("unknown kind %q (have sweep, throughput, resilience)", e.Kind)
	}

	if len(e.Algorithms) == 0 {
		e.Algorithms = append([]string(nil), defaultAlgorithms...)
	}
	for i, a := range e.Algorithms {
		if !slices.Contains(Algorithms, a) {
			return fmt.Errorf("unknown algorithm %q (have %v)", a, Algorithms)
		}
		if slices.Contains(e.Algorithms[:i], a) {
			return fmt.Errorf("algorithm %q listed twice", a)
		}
	}
	if len(e.Patterns) == 0 {
		if e.Kind == "throughput" {
			e.Patterns = append([]string(nil), defaultThptPatterns...)
		} else {
			e.Patterns = []string{"UR"}
		}
	}
	for i, p := range e.Patterns {
		if !slices.Contains(Patterns, p) {
			return fmt.Errorf("unknown pattern %q (have %v)", p, Patterns)
		}
		if slices.Contains(e.Patterns[:i], p) {
			return fmt.Errorf("pattern %q listed twice", p)
		}
	}
	for _, w := range e.Config.Widths {
		if w < 2 {
			return fmt.Errorf("config widths must be at least 2, got %v", e.Config.Widths)
		}
	}
	// Zero means "default" throughout; a negative count, size or latency
	// means nothing, and would schedule events into the past or turn a
	// run bound into "no bound".
	c, o := &e.Config, &e.Opts
	if min(c.Terms, c.Faults, c.NumVCs, c.BufDepth, c.MaxPktFlits, c.XbarLat, c.RouterChanLat, c.TermChanLat, c.OmniClasses) < 0 {
		return fmt.Errorf("config counts, sizes and latencies must be non-negative")
	}
	if err := checkScale(c.withDefaults()); err != nil {
		return err
	}
	if min(o.Warmup, o.Window, o.DrainCap, o.MinFlits, o.MaxFlits, o.Shards) < 0 || !(o.LatencyCap >= 0) {
		return fmt.Errorf("opts fields must be non-negative")
	}
	if f := e.Fork; f != nil && (min(f.WarmCycles, f.Settle) < 0 || !(f.WarmLoad >= 0)) {
		return fmt.Errorf("fork fields must be non-negative")
	}

	if e.Kind != "resilience" && (e.MaxFaults != 0 || e.Load != 0) {
		return fmt.Errorf("max_faults and load apply to kind resilience only")
	}
	if e.Kind != "sweep" && e.Fork != nil {
		return fmt.Errorf("fork applies to kind sweep only")
	}
	if f := e.Fork; f != nil && f.WarmCycles == 0 {
		// With no warmup to share, every point would restore the
		// post-Build state and run the cold point: the zero fork is the
		// cold sweep, key included.
		if *f != (ForkOpts{}) {
			return fmt.Errorf("fork WarmLoad and Settle apply only with WarmCycles > 0")
		}
		e.Fork = nil
	}
	switch e.Kind {
	case "sweep":
		if len(e.Loads) > 0 && e.Step != 0 {
			return fmt.Errorf("loads and step are mutually exclusive")
		}
		if len(e.Loads) == 0 {
			if e.Step == 0 {
				e.Step = 0.05
			}
			if !(e.Step > 0) || math.IsInf(e.Step, 0) {
				return fmt.Errorf("step must be positive and finite, got %v", e.Step)
			}
			if e.Step > 1 || e.Step*maxCurvePoints < 1 {
				return fmt.Errorf("step must lie in [1/%d, 1] (a curve holds at most %d points), got %v", maxCurvePoints, maxCurvePoints, e.Step)
			}
			e.Loads = LoadRange(e.Step)
			e.Step = 0 // canonical form carries the grid, not its generator
		}
		if len(e.Loads) > maxCurvePoints {
			return fmt.Errorf("a curve holds at most %d load points, got %d", maxCurvePoints, len(e.Loads))
		}
		for _, l := range e.Loads {
			if l <= 0 {
				return fmt.Errorf("loads must be positive, got %v", l)
			}
		}
	case "throughput":
		if len(e.Loads) > 0 || e.Step != 0 {
			return fmt.Errorf("throughput runs at offered load 1.0; loads/step do not apply")
		}
	case "resilience":
		if len(e.Loads) > 0 || e.Step != 0 {
			return fmt.Errorf("resilience runs at the fixed load field; loads/step do not apply")
		}
		if len(e.Patterns) != 1 {
			return fmt.Errorf("resilience takes exactly one pattern, got %v", e.Patterns)
		}
		if e.MaxFaults < 1 {
			return fmt.Errorf("resilience needs max_faults >= 1, got %d", e.MaxFaults)
		}
		if e.MaxFaults > maxCurvePoints-1 { // a curve of k = 0..MaxFaults
			return fmt.Errorf("a resilience curve holds at most %d points, so max_faults <= %d, got %d", maxCurvePoints, maxCurvePoints-1, e.MaxFaults)
		}
		if e.Load < 0 {
			return fmt.Errorf("load must be positive, got %v", e.Load)
		}
		if e.Load == 0 {
			e.Load = 0.5
		}
	}
	return nil
}

// defaulted returns a copy with the Config and RunOpts defaults applied:
// the form cells are enumerated, keyed and simulated from.
func (e *Experiment) defaulted() *Experiment {
	x := *e
	x.Config, x.Opts = x.Config.withDefaults(), x.Opts.withDefaults()
	return &x
}

// Key is the canonical content address of a normalized experiment: the
// concatenation of its cells' checkpoint keys (the strings the result
// cache files cells under), taken from the same enumeration Run executes,
// so two experiments share a key exactly when they request the same
// computation. The sweep service deduplicates submissions on it and
// hashes it into the job ID; the exact strings are pinned by the job-ID
// golden (internal/serve/testdata/job_ids.txt). It is a pure string
// build — no cell is scheduled or simulated.
func (e *Experiment) Key() string {
	x := e.defaulted()
	p := x.plan()
	tag := p.jobTag
	if x.Kind == "sweep" {
		// A sweep is addressed by its whole curves in either execution
		// mode: a cold sweep's identity is its curve keys under a zero
		// fork, filed under the cold tag.
		p = forkPlan
	}
	var parts []string
	x.eachCell(p, func(c cell) { parts = append(parts, c.key) })
	return "job|" + tag + "|" + strings.Join(parts, "||")
}

// Scale limits of a runnable configuration: the largest is the
// 16x16x16 t=16 network (65,536 terminals, radix 61). Past them a build
// would size its per-router tables for a network no run could finish.
const (
	maxTerminals = 1 << 16
	maxRadix     = 256
)

// checkScale rejects a configuration with more than maxTerminals
// terminals (Terms times the product of the widths) or a router radix
// (Terms plus the sum of width-1) above maxRadix, computing both without
// overflow. c has its defaults applied and positive widths.
func checkScale(c Config) error {
	n, r := c.Terms, c.Terms
	for _, w := range c.Widths {
		if n > maxTerminals/w {
			n = maxTerminals + 1
			break
		}
		n *= w // a product of at most maxTerminals bounds the sum of the widths too
		r += w - 1
	}
	if n > maxTerminals {
		return fmt.Errorf("config has more than %d terminals (Terms times the product of Widths)", maxTerminals)
	}
	if r > maxRadix {
		return fmt.Errorf("config router radix exceeds %d (Terms plus the sum of Widths-1)", maxRadix)
	}
	return nil
}

// Result is what an Experiment produced: Curves for a sweep, Grid for a
// throughput experiment, Points for a resilience experiment.
type Result struct {
	Curves []Curve           `json:"curves,omitempty"`
	Grid   *ThroughputGrid   `json:"grid,omitempty"`
	Points []ResiliencePoint `json:"points,omitempty"`
}

// WriteCSV renders res — the Result of running e — in the exact bytes
// cmd/hxsweep prints and hxserved serves for e's kind.
func (e *Experiment) WriteCSV(w io.Writer, res Result) error {
	return e.plan().csv(w, res)
}

// Run executes the experiment on the parallel harness and is the single
// driver behind every sweep kind: it enumerates the kind's cells, resolves
// each one from the checkpoint store, a concurrent identical computation
// (SweepOpts.Flight) or a fresh simulation, persists what it computed,
// and assembles the kind's Result. Every cell is an independent
// simulation seeded exactly as the serial runners seed it, so results are
// bit-identical at any worker count, with or without a store. The
// manifest is returned even when the run fails. The receiver is not
// modified; an unnormalized experiment is normalized (and validated)
// first, and SweepOpts.Fork stands in for a nil Fork.
func (e *Experiment) Run(ctx context.Context, po SweepOpts) (Result, *Manifest, error) {
	x := e.defaulted()
	if x.Fork == nil {
		x.Fork = po.Fork
	}
	if err := x.Normalize(); err != nil {
		return Result{}, nil, fmt.Errorf("hyperx: %w", err)
	}
	p := x.plan()
	store := po.Store

	var jobs []harness.Job
	faultiest := x.Config // the cell configuration injecting the most faults
	x.eachCell(p, func(c cell) {
		if c.cfg.Faults > faultiest.Faults {
			faultiest = c.cfg
		}
		jobs = append(jobs, harness.Job{
			Curve: c.curve,
			Point: c.point,
			Label: p.label(c),
			Seed:  c.cfg.Seed,
			Run: func(jctx context.Context) (harness.Outcome, error) {
				return resolveCell(jctx, x, p, c, store, po.Flight)
			},
		})
	})
	if p.earlyStop {
		harness.SortForSpeculation(jobs)
	}
	// The largest fault set goes on the manifest; resolving it first fails
	// the run before any simulation time is spent when it cannot be
	// injected (fault selection is deterministic in (Widths, Faults,
	// FaultSeed), so this is the list the cells themselves inject).
	faults, err := BuildFaults(faultiest)
	if err != nil {
		return Result{}, nil, fmt.Errorf("hyperx: injecting %d faults: %w", faultiest.Faults, err)
	}

	rr, err := harness.Run(ctx, jobs, harness.Options{
		Workers:   po.Workers,
		EarlyStop: p.earlyStop,
		OnEvent:   po.OnEvent,
	})
	stampFaults(faults, rr.Manifest)
	stampProvenance(rr.Manifest, p.mode, x, store, rr)
	if err != nil {
		return Result{}, rr.Manifest, err
	}
	vals, err := cellValues(x, p, rr)
	if err != nil {
		return Result{}, rr.Manifest, err
	}
	res, err := p.assemble(x, vals)
	return res, rr.Manifest, err
}

// resolveCell produces one cell's outcome: a store hit, a value shared
// from a concurrent identical computation in another sweep, or a fresh
// simulation — which is persisted before it is reported, so a killed run
// never loses a completed cell. The store lookup runs inside the flight,
// so a cell another sweep has just finished is read back, never
// recomputed. Store hits and shared values are marked cached.
func resolveCell(ctx context.Context, x *Experiment, p *plan, c cell, store *CheckpointStore, fl *harness.Flight) (harness.Outcome, error) {
	hit := false
	v, shared, err := fl.Do(c.key, func() (any, bool, error) { // a nil Flight just runs this
		if store != nil {
			rec := p.blank()
			ok, err := store.Load(c.key, rec)
			if err != nil || ok {
				hit = ok
				return rec, false, err
			}
		}
		rec, err := p.compute(ctx, x, c)
		if err == nil && store != nil {
			err = store.Save(c.key, rec)
		}
		return rec, true, err
	})
	if err != nil {
		return harness.Outcome{}, err
	}
	out := v.(record).outcome()
	out.Cached = shared || hit
	return out, nil
}

// cellValues lays the completed cells' values out by [curve][point]; a
// cell that did not complete is nil. Only an early-stopping plan may have
// such cells (the speculative points past a curve's saturation):
// anywhere else one is an error naming the cell — never a silent 0.0 in
// a grid or a quietly shortened degradation curve.
func cellValues(x *Experiment, p *plan, rr *harness.RunResult) ([][]any, error) {
	vals := make([][]any, len(x.Patterns)*len(x.Algorithms))
	for _, jr := range rr.Jobs {
		if !jr.Done && !p.earlyStop {
			return nil, fmt.Errorf("hyperx: %s experiment: cell %s did not complete", x.Kind, jr.Job.Label)
		}
		row := vals[jr.Job.Curve]
		for len(row) <= jr.Job.Point {
			row = append(row, nil)
		}
		if jr.Done {
			row[jr.Job.Point] = jr.Outcome.Value
		}
		vals[jr.Job.Curve] = row
	}
	return vals, nil
}
