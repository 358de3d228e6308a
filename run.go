package hyperx

import (
	"context"
	"fmt"

	"hyperx/internal/sim"
	"hyperx/internal/stats"
	"hyperx/internal/traffic"
)

// RunOpts controls a steady-state run, following the paper's Section 6.1
// methodology (documented in full in internal/stats): the network warms
// up for Warmup cycles under full injection, every packet *born* during
// the next Window cycles is measured, and injection then continues — so
// the measured tail experiences realistic back-pressure — until all
// measured packets are delivered or DrainCap extra cycles have elapsed,
// at which point the run is declared saturated.
//
// Zero values take defaults sized for the 4x4x4 test scale; multiply
// Warmup/Window up for the full 8x8x8.
type RunOpts struct {
	Warmup     int     // cycles before the measurement window (default 20000)
	Window     int     // measurement window length in cycles (default 15000)
	DrainCap   int     // extra cycles allowed for measured packets to drain (default 10x window)
	LatencyCap float64 // mean latency declaring saturation outright (default 20000)
	MinFlits   int     // smallest generated packet (default 1)
	MaxFlits   int     // largest generated packet (default 16)

	// Shards runs each simulation on Shards cores via the deterministic
	// barrier-synchronized executor (internal/shard); 0 or 1 is serial.
	// The executed event sequence — and every result — is bit-identical
	// across shard counts, so Shards is deliberately excluded from the
	// checkpoint key (checkpoint.go optsKey): a cache written serially is
	// served to sharded runs and vice versa. Counts above the router
	// count are clamped.
	//hxlint:key excluded — results are bit-identical across shard counts, so serial and sharded runs share checkpoints (TestShardsExcludedFromCheckpointKey)
	Shards int
}

func (o RunOpts) withDefaults() RunOpts {
	if o.Warmup == 0 {
		o.Warmup = 20000
	}
	if o.Window == 0 {
		o.Window = 15000
	}
	if o.DrainCap == 0 {
		o.DrainCap = 10 * o.Window
	}
	if o.LatencyCap == 0 {
		o.LatencyCap = 20000
	}
	if o.MinFlits == 0 {
		o.MinFlits = 1
	}
	if o.MaxFlits == 0 {
		o.MaxFlits = 16
	}
	return o
}

// LoadPoint is one point on a load-latency curve (Figure 6 a-f).
type LoadPoint struct {
	Load      float64 // offered load, flits/cycle/terminal (1.0 = capacity)
	Mean      float64 // mean packet latency, cycles (ns)
	P50       float64
	P99       float64
	Accepted  float64 // accepted throughput, flits/cycle/terminal
	Samples   int
	Saturated bool

	// Delivered and Dropped count packets over the whole run (warmup
	// included): on a pristine network Dropped is always zero; on a
	// faulted one it is the loss the detect-and-drop path charged to
	// fault-oblivious algorithms.
	Delivered uint64
	Dropped   uint64
}

// simStats carries the kernel's observability counters out of a run for
// the harness manifest.
type simStats struct {
	Cycles    int64  // simulation clock at the end of the run
	Events    uint64 // kernel events executed
	Delivered uint64 // packets delivered over the whole run
	Dropped   uint64 // packets lost to fault-induced drops
}

// counters reads the instance's simStats at the current clock.
func (inst *Instance) counters() simStats {
	return simStats{
		Cycles:    int64(inst.K.Now()),
		Events:    inst.K.Executed(),
		Delivered: inst.Net.DeliveredPackets,
		Dropped:   inst.Net.DroppedPackets,
	}
}

// startRun is the cold prologue every measured run shares: build cfg's
// instance and start a generator offering load under patternName. The
// caller owns the instance and must Close it.
func startRun(cfg Config, patternName string, load float64, opts RunOpts) (*Instance, *traffic.Generator, error) {
	inst, err := Build(cfg)
	if err != nil {
		return nil, nil, err
	}
	pat, err := NewPattern(patternName, inst.Topo)
	if err != nil {
		inst.Close()
		return nil, nil, err
	}
	gen := &traffic.Generator{
		Net:     inst.Net,
		Pattern: pat,
		Sizes:   traffic.UniformSize{Min: opts.MinFlits, Max: opts.MaxFlits},
		Load:    load,
	}
	gen.Start(inst.Cfg.Seed)
	return inst, gen, nil
}

// collect hooks a collector measuring packets born in [warm, end) onto
// the instance's observers and the generator's birth hook.
func collect(inst *Instance, gen *traffic.Generator, warm, end sim.Time) *stats.Collector {
	col := stats.NewCollector(warm, end)
	inst.Net.OnDeliver = col.OnDeliver
	inst.Net.OnDrop = col.OnDrop
	gen.OnBirth = func(_, _, _ int, at sim.Time) { col.CountBirth(at) }
	return col
}

// RunLoadPoint measures one offered load for one pattern, following the
// Section 6.1 methodology: warm up, then measure every packet born in the
// window while injection continues; injection stops only once all
// measured packets are delivered (or the drain cap declares saturation).
func RunLoadPoint(cfg Config, patternName string, load float64, opts RunOpts) (LoadPoint, error) {
	pt, _, err := runLoadPointCtx(context.Background(), cfg, patternName, load, opts)
	return pt, err
}

// runLoadPointCtx is the cancellable core of RunLoadPoint, shared by the
// serial and parallel paths. An uncancelled run is bit-identical to the
// historical serial implementation: the context poll in sim.Kernel.RunCtx
// never reorders events, and the whole random universe of the instance
// derives from cfg.Seed alone (see internal/rng).
func runLoadPointCtx(ctx context.Context, cfg Config, patternName string, load float64, opts RunOpts) (LoadPoint, simStats, error) {
	opts = opts.withDefaults()
	inst, gen, err := startRun(cfg, patternName, load, opts)
	if err != nil {
		return LoadPoint{}, simStats{}, err
	}
	defer inst.Close()
	return runPointOn(ctx, inst, gen, load, opts, sim.Time(opts.Warmup))
}

// runPointOn measures one load point on an already-built instance whose
// generator is started (and possibly warm): the network settles for settle
// cycles from the current clock, every packet born during the next Window
// cycles is measured, and injection continues until the measured tail
// drains or the cap declares saturation. The cold path calls it straight
// after Build+Start with settle = Warmup — bit-identical to the historical
// inline implementation — and the warm-fork path calls it after a Restore
// with a shorter settle, the fork having amortized the warmup.
func runPointOn(ctx context.Context, inst *Instance, gen *traffic.Generator, load float64, opts RunOpts, settle sim.Time) (LoadPoint, simStats, error) {
	warm := inst.K.Now() + settle
	end := warm + sim.Time(opts.Window)
	col := collect(inst, gen, warm, end)
	if _, err := inst.runCtx(ctx, end, opts.Shards); err != nil {
		return LoadPoint{}, inst.counters(), err
	}
	// Drain: injection continues (realistic back-pressure on the measured
	// tail) until every measured packet is delivered or the cap is hit.
	deadline := end + sim.Time(opts.DrainCap)
	for !col.Done() && inst.K.Now() < deadline {
		if _, err := inst.runCtx(ctx, inst.K.Now()+2000, opts.Shards); err != nil {
			return LoadPoint{}, inst.counters(), err
		}
	}
	gen.Stop()

	res := col.Summarize(inst.Topo.NumTerminals(), opts.LatencyCap)
	// The sharpest saturation signal in an open-loop run: the network
	// accepts measurably less than offered (beyond a 5% relative + 0.005
	// absolute tolerance for sampling noise at low loads), so source
	// queues grow without bound. This is the rule that terminates each
	// Figure 6 curve; stats.Collector contributes the latency-based
	// signals folded in via res.Saturated.
	saturated := res.Saturated || res.Accepted < 0.95*load-0.005
	return LoadPoint{
		Load:      load,
		Mean:      res.Mean,
		P50:       res.P50,
		P99:       res.P99,
		Accepted:  res.Accepted,
		Samples:   res.Samples,
		Saturated: saturated,
		Delivered: inst.Net.DeliveredPackets,
		Dropped:   inst.Net.DroppedPackets,
	}, inst.counters(), nil
}

// RunLoadSweep measures ascending offered loads and stops after the first
// saturated point, mirroring how the paper's load-latency lines end at
// saturation. Loads are fractions of terminal channel capacity.
// RunLoadSweepParallel produces bit-identical curves on a worker pool.
func RunLoadSweep(cfg Config, patternName string, loads []float64, opts RunOpts) ([]LoadPoint, error) {
	var out []LoadPoint
	for _, l := range loads {
		pt, err := RunLoadPoint(cfg, patternName, l, opts)
		if err != nil {
			return out, err
		}
		out = append(out, pt)
		if pt.Saturated {
			break
		}
	}
	return out, nil
}

// LoadRange builds the sweep grid [step, 2*step, ..., 1.0]; the paper uses
// a 2% granularity (step 0.02). Each point is computed as i*step (not by
// repeated addition), so grids are exact: LoadRange(0.1)[9] is exactly
// 1.0, and the same index always yields the same load bit pattern. A step
// the loop could not terminate on (zero, negative, NaN) yields nil.
func LoadRange(step float64) []float64 {
	if !(step > 0) {
		return nil
	}
	var out []float64
	for i := 1; ; i++ {
		l := float64(i) * step
		if l > 1.0+1e-9 {
			break
		}
		out = append(out, l)
	}
	return out
}

// RunThroughput measures accepted throughput at full offered load — the
// saturated "total achieved throughput" of Figure 6g.
func RunThroughput(cfg Config, patternName string, opts RunOpts) (float64, error) {
	th, _, err := runThroughputCtx(context.Background(), cfg, patternName, opts)
	return th, err
}

// runThroughputCtx is the cancellable core of RunThroughput, shared by
// the serial and parallel paths; uncancelled runs are bit-identical to
// the historical serial implementation.
func runThroughputCtx(ctx context.Context, cfg Config, patternName string, opts RunOpts) (float64, simStats, error) {
	opts = opts.withDefaults()
	inst, gen, err := startRun(cfg, patternName, 1.0, opts)
	if err != nil {
		return 0, simStats{}, err
	}
	defer inst.Close()
	end := sim.Time(opts.Warmup) + sim.Time(opts.Window)
	col := collect(inst, gen, sim.Time(opts.Warmup), end)
	if _, err := inst.runCtx(ctx, end, opts.Shards); err != nil {
		return 0, inst.counters(), err
	}
	gen.Stop()
	res := col.Summarize(inst.Topo.NumTerminals(), opts.LatencyCap)
	return res.Accepted, inst.counters(), nil
}

// FormatLoadPoints renders sweep results as an aligned text table.
func FormatLoadPoints(pts []LoadPoint) string {
	s := fmt.Sprintf("%8s %10s %10s %10s %10s %9s\n", "load", "mean(ns)", "p50(ns)", "p99(ns)", "accepted", "samples")
	for _, p := range pts {
		mark := ""
		if p.Saturated {
			mark = "  [saturated]"
		}
		s += fmt.Sprintf("%8.2f %10.1f %10.1f %10.1f %10.3f %9d%s\n",
			p.Load, p.Mean, p.P50, p.P99, p.Accepted, p.Samples, mark)
	}
	return s
}
