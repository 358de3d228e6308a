package hyperx

import (
	"context"
	"fmt"

	"hyperx/internal/network"
	"hyperx/internal/sim"
	"hyperx/internal/traffic"
)

// SimState is a complete warm-state checkpoint of a simulation instance:
// the network half (state slabs, packets, credits, router RNG streams,
// kernel calendar — see internal/network.Snapshot) plus the traffic half
// (per-terminal generator streams and carries). It is relocatable: restore
// it into the same instance or into a fresh one built from the identical
// Config, and the resumed run is bit-identical to the captured one.
// docs/STATE.md is the authoritative inventory of what it contains.
type SimState struct {
	Net *network.Snapshot `json:"net"`
	Gen *traffic.GenState `json:"gen,omitempty"`
}

// Snapshot captures the instance's warm state. gen is the traffic
// generator driving the instance, or nil if no generator has been started
// (a pristine post-Build snapshot). The instance may keep running
// afterwards; the snapshot is an independent value copy.
func (inst *Instance) Snapshot(gen *traffic.Generator) (*SimState, error) {
	var ext []sim.Actor
	s := &SimState{}
	if gen != nil {
		ext = append(ext, gen)
		s.Gen = gen.Snapshot()
	}
	ns, err := inst.Net.Snapshot(ext...)
	if err != nil {
		return nil, err
	}
	s.Net = ns
	return s, nil
}

// Restore rewinds the instance to a snapshotted state. gen must mirror the
// Snapshot call: the generator that will receive the snapshot's pending
// injection events (started, so its stream slab exists), or nil for a
// generator-free snapshot. On error the instance is in an unspecified
// state and must be discarded.
func (inst *Instance) Restore(s *SimState, gen *traffic.Generator) error {
	if (gen != nil) != (s.Gen != nil) {
		return fmt.Errorf("hyperx: restore: snapshot %s a generator but caller %s one",
			has(s.Gen != nil), has(gen != nil))
	}
	var ext []sim.Actor
	if gen != nil {
		if err := gen.Restore(s.Gen); err != nil {
			return err
		}
		ext = append(ext, gen)
	}
	return inst.Net.Restore(s.Net, ext...)
}

func has(b bool) string {
	if b {
		return "has"
	}
	return "lacks"
}

// ForkOpts selects how a warm-fork sweep shares state across the load
// points of one (pattern, algorithm) curve. Two modes, chosen by
// WarmCycles:
//
// Pristine fork (WarmCycles == 0): the curve builds one instance,
// snapshots its pristine post-Build state, and restores it for every load
// point, which then warms up and measures exactly as a cold run does. The
// per-point simulation code path is identical to the cold path from Build
// onward, so the curve is bit-identical to the cold sweep — guaranteed by
// construction and pinned by TestWarmForkMatchesCold.
//
// Warm fork (WarmCycles > 0): the curve warms one instance for WarmCycles
// cycles at offered load WarmLoad, snapshots, and restores per point,
// retargeting the generator to the point's load and settling for Settle
// cycles before the measurement window. The warmup is paid once instead of
// per point — that is the sweep speedup — but the traffic history differs
// from a cold run's, so results are a distinct deterministic methodology
// (same seed → same CSV, pinned by the golden_warmfork test), NOT
// byte-comparable to cold CSVs. See EXPERIMENTS.md for the methodology
// discussion.
type ForkOpts struct {
	WarmCycles int     // warmup cycles before the fork point; 0 = pristine fork
	WarmLoad   float64 // offered load during shared warmup (default 0.5)
	Settle     int     // post-fork settle cycles per point (default Warmup/4)
}

func (f ForkOpts) withDefaults(opts RunOpts) ForkOpts {
	if f.WarmLoad == 0 {
		f.WarmLoad = 0.5
	}
	if f.Settle == 0 {
		f.Settle = opts.Warmup / 4
	}
	return f
}

// runCurveWarmFork measures one (pattern, algorithm) curve by forking a
// shared snapshot per load point, serially in ascending load order,
// stopping after the first saturated point like the serial sweep. The
// returned simStats aggregate the whole curve (warmup included).
func runCurveWarmFork(ctx context.Context, cfg Config, patternName string, loads []float64, opts RunOpts, fk ForkOpts) ([]LoadPoint, simStats, error) {
	opts = opts.withDefaults()
	fk = fk.withDefaults(opts)
	inst, err := Build(cfg)
	if err != nil {
		return nil, simStats{}, err
	}
	defer inst.Close()
	pat, err := NewPattern(patternName, inst.Topo)
	if err != nil {
		return nil, simStats{}, err
	}
	sizes := traffic.UniformSize{Min: opts.MinFlits, Max: opts.MaxFlits}

	var (
		snap *SimState
		gen  *traffic.Generator // non-nil only in warm (mode 2) forking
	)
	if fk.WarmCycles > 0 {
		gen = &traffic.Generator{Net: inst.Net, Pattern: pat, Sizes: sizes, Load: fk.WarmLoad}
		gen.Start(inst.Cfg.Seed)
		if _, err := inst.runCtx(ctx, sim.Time(fk.WarmCycles), opts.Shards, 0); err != nil {
			return nil, simStats{}, err
		}
	}
	if snap, err = inst.Snapshot(gen); err != nil {
		return nil, simStats{}, err
	}
	// Baseline at the fork point: restore rewinds the clock and counters,
	// so each point's stats include the shared warm phase. The aggregate
	// charges the warm phase once plus every point's own delta.
	fork := inst.counters()

	var pts []LoadPoint
	agg := fork
	for _, load := range loads {
		var pt LoadPoint
		var st simStats
		if gen != nil {
			// Warm fork: rewind to the fork point, retarget the offered
			// load, settle, measure.
			if err := inst.Restore(snap, gen); err != nil {
				return pts, agg, err
			}
			gen.Load = load
			pt, st, err = runPointOn(ctx, inst, gen, load, opts, sim.Time(fk.Settle))
		} else {
			// Pristine fork: rewind to the post-Build state and run the
			// exact cold-path point code (fresh generator, full warmup).
			if err := inst.Restore(snap, nil); err != nil {
				return pts, agg, err
			}
			g := &traffic.Generator{Net: inst.Net, Pattern: pat, Sizes: sizes, Load: load}
			g.Start(inst.Cfg.Seed)
			pt, st, err = runPointOn(ctx, inst, g, load, opts, sim.Time(opts.Warmup))
		}
		if err != nil {
			return pts, agg, err
		}
		agg.Cycles += st.Cycles - fork.Cycles
		agg.Events += st.Events - fork.Events
		agg.Delivered += st.Delivered - fork.Delivered
		agg.Dropped += st.Dropped - fork.Dropped
		pts = append(pts, pt)
		if pt.Saturated {
			break
		}
	}
	return pts, agg, nil
}
