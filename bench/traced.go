package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"hyperx"
	"hyperx/internal/rng"
	"hyperx/internal/route"
	"hyperx/internal/shard"
	"hyperx/internal/sim"
	"hyperx/internal/stats"
	"hyperx/internal/topology"
	"hyperx/internal/traffic"
)

// The traced pass. RunLoadSweepParallel builds its instances privately, so
// to put a decorator on each layer's public entry point the traced pass
// enumerates the same cells itself and drives each one through the same
// public API the facade uses: hyperx.Build, then wrap Net.Cfg.Alg, the
// generator's Pattern and the delivery hooks, then the warm-up / window /
// drain loop of the Section 6.1 methodology. The decorators only count and
// time; each traced cell must execute exactly the kernel events the
// untraced facade run recorded for it, and yield the same CSV bytes.

// slot is one router's (or terminal's) private counters. In the sharded
// workload the decorators run on two threads at once, each only ever on
// its own shard's routers and terminals, so per-owner slots need no
// synchronisation; the padding keeps neighbouring shards' slots off one
// cache line.
type slot struct {
	sampler
	cands uint64
	_     [32]byte
}

// timedAlg wraps the routing algorithm the routers consult
// (Net.Cfg.Alg), counting calls and candidates and timing a sample.
type timedAlg struct {
	route.Algorithm
	slots []slot // by router
}

func (a *timedAlg) Route(ctx *route.Ctx, p *route.Packet) []route.Candidate {
	s := &a.slots[ctx.Router]
	s.calls++
	if s.calls%sampleEvery != 0 {
		c := a.Algorithm.Route(ctx, p)
		s.cands += uint64(len(c))
		return c
	}
	t0 := time.Now()
	c := a.Algorithm.Route(ctx, p)
	s.ns += int64(time.Since(t0))
	s.samples++
	s.cands += uint64(len(c))
	return c
}

// timedPattern wraps the generator's destination draw.
type timedPattern struct {
	traffic.Pattern
	slots []slot // by source terminal
}

func (p *timedPattern) Dest(src int, rs *rng.Source) int {
	s := &p.slots[src]
	s.calls++
	if s.calls%sampleEvery != 0 {
		return p.Pattern.Dest(src, rs)
	}
	t0 := time.Now()
	d := p.Pattern.Dest(src, rs)
	s.ns += int64(time.Since(t0))
	s.samples++
	return d
}

func sumSlots(slots []slot) (s sampler, cands uint64) {
	for i := range slots {
		s.add(slots[i].sampler)
		cands += slots[i].cands
	}
	return s, cands
}

// timedModel is the shard.Model the traced sharded cell hands to
// shard.New: the network itself, with every executor-facing call timed.
// PartitionWindow, MergeWindow and the fold run on the coordinator;
// RunShard runs on whichever pool thread took shard s and writes only
// cur[s], which the coordinator reads after the executor's barrier.
type timedModel struct {
	shard.Model
	shardTotals
	cur []time.Duration // this window's RunShard time, by shard
}

// shardTotals is what the timing model accumulates, per cell and then
// over a pass.
type shardTotals struct {
	windows, fallbacks, batchEvents uint64
	partition, merge                time.Duration
	busy, critical                  time.Duration // RunShard summed over shards; per window the slowest shard
}

func (t *shardTotals) add(o shardTotals) {
	t.windows += o.windows
	t.fallbacks += o.fallbacks
	t.batchEvents += o.batchEvents
	t.partition += o.partition
	t.merge += o.merge
	t.busy += o.busy
	t.critical += o.critical
}

func (m *timedModel) PartitionWindow(batch []*sim.Event, winEnd sim.Time) bool {
	t0 := time.Now()
	ok := m.Model.PartitionWindow(batch, winEnd)
	m.partition += time.Since(t0)
	m.windows++
	m.batchEvents += uint64(len(batch))
	if !ok {
		m.fallbacks++
	}
	return ok
}

func (m *timedModel) RunShard(s int) {
	t0 := time.Now()
	m.Model.RunShard(s)
	m.cur[s] = time.Since(t0)
}

func (m *timedModel) MergeWindow() bool {
	var slowest time.Duration
	for s, d := range m.cur {
		m.busy += d
		slowest = max(slowest, d)
		m.cur[s] = 0
	}
	m.critical += slowest
	t0 := time.Now()
	last := m.Model.MergeWindow()
	m.merge += time.Since(t0)
	return last
}

// layers accumulates what the decorators saw over every cell of a pass.
type layers struct {
	route map[string]*slot // "core", "routing": the package owning the algorithm
	dest  slot
	deliv sampler

	births, delivered, dropped uint64
	minHops, hops              uint64
	samples                    int
	events                     uint64
	cycles                     int64
	inflightEnd                uint64
	srcQueueEnd                int
	buildAlloc                 uint64

	sh       shardTotals
	shardRun time.Duration
	snapshot time.Duration
	restore  time.Duration
	snapPkts int
	cellWall time.Duration
}

// algPackage names the package that owns an algorithm's route decision:
// the paper's contributions live in internal/core, the baselines in
// internal/routing.
func algPackage(alg string) string {
	if alg == "DimWAR" || alg == "OmniWAR" {
		return "core"
	}
	return "routing"
}

// liveCell is a traced cell's instance as its run left it: packets in
// flight, generator streams mid-sequence.
type liveCell struct {
	inst *hyperx.Instance
	gen  *traffic.Generator
}

// tracedCell runs one cell with every decorator in place and returns its
// load point, mirroring the facade's cold path step for step. With keep
// set the instance is handed back open, for the fork probe.
func tracedCell(ctx context.Context, tr *tracer, ly *layers, cfg hyperx.Config, pattern string, load float64, opts hyperx.RunOpts, keep bool) (pt hyperx.LoadPoint, live *liveCell, err error) {
	root := tr.begin("cell", 0)
	defer func() { tr.end(root) }()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sp := tr.begin("network.build", root)
	inst, err := hyperx.Build(cfg)
	if err != nil {
		return pt, nil, err
	}
	defer func() {
		if live == nil {
			inst.Close()
		}
	}()
	pat, err := hyperx.NewPattern(pattern, inst.Topo)
	tr.end(sp)
	if err != nil {
		return pt, nil, err
	}
	runtime.ReadMemStats(&ms1)
	ly.buildAlloc += ms1.TotalAlloc - ms0.TotalAlloc

	alg := &timedAlg{Algorithm: inst.Net.Cfg.Alg, slots: make([]slot, len(inst.Net.Routers))}
	inst.Net.Cfg.Alg = alg
	tpat := &timedPattern{Pattern: pat, slots: make([]slot, len(inst.Net.Terminals))}

	warm := sim.Time(opts.Warmup)
	end := warm + sim.Time(opts.Window)
	col := stats.NewCollector(warm, end)
	inst.Net.OnDeliver = func(p *route.Packet, at sim.Time) {
		ly.delivered++
		ly.hops += uint64(p.Hops)
		ly.minHops += uint64(inst.Topo.MinHops(p.SrcRouter, p.DstRouter))
		ly.deliv.calls++
		if ly.deliv.calls%sampleEvery != 0 {
			col.OnDeliver(p, at)
			return
		}
		t0 := time.Now()
		col.OnDeliver(p, at)
		ly.deliv.ns += int64(time.Since(t0))
		ly.deliv.samples++
	}
	inst.Net.OnDrop = func(p *route.Packet, at sim.Time) {
		ly.dropped++
		col.OnDrop(p, at)
	}
	gen := &traffic.Generator{
		Net:     inst.Net,
		Pattern: tpat,
		Sizes:   traffic.UniformSize{Min: 1, Max: 16},
		Load:    load,
		OnBirth: func(_, _, _ int, at sim.Time) {
			ly.births++
			col.CountBirth(at)
		},
	}
	gen.Start(inst.Cfg.Seed)

	// The executor: the kernel's own loop, or the sharded executor over
	// the timing model, at the facade's default window width.
	advance := func(until sim.Time) error {
		_, err := inst.K.RunCtx(ctx, until)
		return err
	}
	var tm *timedModel
	if opts.Shards > 1 {
		if err := inst.Net.ConfigureShards(opts.Shards); err != nil {
			return pt, nil, err
		}
		nc := inst.Net.Cfg
		tm = &timedModel{Model: inst.Net, cur: make([]time.Duration, opts.Shards)}
		x := shard.New(inst.K, tm, min(nc.XbarLat, nc.RouterChanLat, nc.TermChanLat))
		defer x.Close()
		advance = func(until sim.Time) error {
			_, err := x.RunCtx(ctx, until)
			return err
		}
	}
	run := func(until sim.Time) error {
		sp := tr.begin("network.run", root)
		err := advance(until)
		tr.end(sp)
		if tm != nil {
			ly.shardRun += tr.dur(sp)
		}
		return err
	}

	if err := run(end); err != nil {
		return pt, nil, err
	}
	deadline := end + sim.Time(10*opts.Window)
	for !col.Done() && inst.K.Now() < deadline {
		if err := run(inst.K.Now() + 2000); err != nil {
			return pt, nil, err
		}
	}
	gen.Stop()

	sp = tr.begin("stats.summarize", root)
	res := col.Summarize(inst.Topo.NumTerminals(), 20000)
	tr.end(sp)

	routed, cands := sumSlots(alg.slots)
	pkg := ly.route[algPackage(cfg.Algorithm)]
	pkg.add(routed)
	pkg.cands += cands
	ds, _ := sumSlots(tpat.slots)
	ly.dest.add(ds)
	ly.samples += res.Samples
	ly.events += inst.K.Executed()
	ly.cycles += int64(inst.K.Now())
	ly.inflightEnd += inst.Net.InFlight()
	ly.srcQueueEnd += gen.TotalQueued()
	if tm != nil {
		ly.sh.add(tm.shardTotals)
	}

	if keep {
		live = &liveCell{inst: inst, gen: gen}
	}
	return hyperx.LoadPoint{
		Load:      load,
		Mean:      res.Mean,
		P50:       res.P50,
		P99:       res.P99,
		Accepted:  res.Accepted,
		Samples:   res.Samples,
		Saturated: res.Saturated || res.Accepted < 0.95*load-0.005,
		Delivered: inst.Net.DeliveredPackets,
		Dropped:   inst.Net.DroppedPackets,
	}, live, nil
}

// forkProbe times the facade's fork primitives on a live cell and closes
// it. It runs after the profiled pass: a paper-scale snapshot allocates
// enough to colour the whole pass's runtime share.
func forkProbe(tr *tracer, ly *layers, live *liveCell) error {
	defer live.inst.Close()
	sp := tr.begin("hyperx.snapshot", 0)
	snap, err := live.inst.Snapshot(live.gen)
	tr.end(sp)
	if err != nil {
		return err
	}
	ly.snapshot = tr.dur(sp)
	ly.snapPkts = len(snap.Net.Packets)
	sp = tr.begin("hyperx.restore", 0)
	err = live.inst.Restore(snap, live.gen)
	tr.end(sp)
	ly.restore = tr.dur(sp)
	return err
}

// runSimTraced is the traced run of a simulation workload: one untraced
// reference pass through the facade (the manifest the traced cells are
// held against, and the wall the overhead is measured from), then the
// same cells serially under the decorators and the CPU profiler.
func runSimTraced(ctx context.Context, rc runCfg) (*report, error) {
	rep := newReport()
	c := simCase(rc.workload, rc.sz, rc.seed)
	timerNS := timerCost()

	if _, err := c.setup(); err != nil { // heap warm-up; setup_s is an end-to-end metric
		return nil, err
	}
	runtime.GC()
	ref, err := c.run(ctx)
	if err != nil {
		return nil, err
	}
	rep.artefacts["sweep.csv"] = ref.csv
	rep.attempted = len(ref.cells)

	tr := newTracer()
	ly := &layers{route: map[string]*slot{"core": {}, "routing": {}}}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	prof, err := startProfile(filepath.Join(rc.outDir, "cpu-"+rc.workload+".pprof"))
	if err != nil {
		return nil, err
	}
	cpu0, t0 := cpuSeconds(), time.Now()
	curves := make([]hyperx.Curve, 0, len(c.patterns)*len(c.algs))
	var live *liveCell
	i := 0
	for _, pat := range c.patterns {
		for _, alg := range c.algs {
			cv := hyperx.Curve{Pattern: pat, Algorithm: alg}
			for _, load := range c.loads {
				cfg := c.cfg
				cfg.Algorithm = alg
				before := ly.events
				pt, kept, err := tracedCell(ctx, tr, ly, cfg, pat, load, c.opts, i == len(ref.cells)-1)
				if err != nil {
					prof.stop()
					return nil, err
				}
				if kept != nil {
					live = kept
				}
				if i < len(ref.cells) {
					if want := ref.cells[i]; want.pattern != pat || want.alg != alg || want.load != load {
						rep.failf("traced cell %d is %s/%s@%.3f, the facade ran %s/%s@%.3f", i, pat, alg, load, want.pattern, want.alg, want.load)
					} else if got := ly.events - before; got != want.events {
						rep.failf("traced %s/%s@%.3f executed %d kernel events, untraced %d: a decorator perturbed the simulation", pat, alg, load, got, want.events)
					}
				}
				i++
				cv.Points = append(cv.Points, pt)
				if pt.Saturated {
					break
				}
			}
			curves = append(curves, cv)
		}
	}
	tracedWall, tracedCPU := time.Since(t0), cpuSeconds()-cpu0
	prof.stop()
	runtime.ReadMemStats(&ms1)
	if live != nil {
		if err := forkProbe(tr, ly, live); err != nil {
			return nil, err
		}
	}

	var buf bytes.Buffer
	t1 := time.Now()
	if err := hyperx.WriteSweepCSV(&buf, curves); err != nil {
		return nil, err
	}
	csvWrite := time.Since(t1)
	if i != len(ref.cells) {
		rep.failf("traced pass ran %d cells, the facade %d", i, len(ref.cells))
	}
	if !bytes.Equal(buf.Bytes(), ref.csv) {
		rep.failf("traced pass's CSV differs from the facade's")
	}

	m := rep.metrics
	// sim: the kernel's own cost is not separable from the model's inside
	// K.Run, so it is estimated: events x the micro-drive's ns/event.
	nsPerEvent := kernelMicroDrive(rc.sz.kernelEvents)
	simBusy := float64(ly.events) * nsPerEvent / 1e9
	m["sim.kernel_ns_per_event"] = nsPerEvent
	m["sim.events"] = float64(ly.events)
	m["sim.cycles"] = float64(ly.cycles)
	m["sim.events_per_cycle"] = ratio(float64(ly.events), float64(ly.cycles))
	m["sim.est_busy_s"] = simBusy

	var routeBusy float64
	for _, pkg := range []string{"core", "routing"} {
		s := ly.route[pkg]
		busy := secs(s.busy(timerNS))
		routeBusy += busy
		m[pkg+".route_calls"] = float64(s.calls)
		m[pkg+".route_busy_s"] = busy
		m[pkg+".route_ns_per_call"] = ratio(busy*1e9, float64(s.calls))
		m[pkg+".cands_per_call"] = ratio(float64(s.cands), float64(s.calls))
	}
	m["route.minimal_hop_frac"] = ratio(float64(ly.minHops), float64(ly.hops))

	destBusy := secs(ly.dest.busy(timerNS))
	delivBusy := secs(ly.deliv.busy(timerNS))
	self := tr.selfTimes()
	runSelf := max(0, secs(self["network.run"])-routeBusy-destBusy-delivBusy)
	m["network.run_self_s"] = runSelf
	m["network.pipeline_est_s"] = max(0, runSelf-simBusy)
	m["network.ns_per_event"] = ratio(runSelf*1e9, float64(ly.events))
	m["network.delivered_pkts"] = float64(ly.delivered)
	m["network.dropped_pkts"] = float64(ly.dropped)
	m["network.inflight_at_end"] = float64(ly.inflightEnd)
	m["network.hops_per_pkt"] = ratio(float64(ly.hops), float64(ly.delivered))
	m["network.build_s"] = secs(tr.total("network.build"))
	m["network.build_alloc_mb"] = float64(ly.buildAlloc) / (1 << 20)
	m["topology.build_ms"] = topologyBuildMS(rc.sz.paper)

	m["traffic.dest_calls"] = float64(ly.dest.calls)
	m["traffic.dest_busy_s"] = destBusy
	m["traffic.births"] = float64(ly.births)
	m["traffic.src_queue_at_end"] = float64(ly.srcQueueEnd)

	m["stats.on_deliver_calls"] = float64(ly.deliv.calls)
	m["stats.on_deliver_busy_s"] = delivBusy
	m["stats.summarize_s"] = secs(tr.total("stats.summarize"))
	m["stats.samples"] = float64(ly.samples)

	sh := &ly.sh
	shards := float64(max(c.opts.Shards, 1))
	m["shard.windows"] = float64(sh.windows)
	m["shard.batch_events_per_window"] = ratio(float64(sh.batchEvents), float64(sh.windows))
	m["shard.partition_busy_s"] = secs(sh.partition)
	m["shard.run_shard_busy_s"] = secs(sh.busy)
	m["shard.run_shard_critical_s"] = secs(sh.critical)
	m["shard.merge_busy_s"] = secs(sh.merge)
	m["shard.coord_other_s"] = max(0, secs(ly.shardRun-sh.partition-sh.critical-sh.merge))
	m["shard.imbalance"] = ratio(secs(sh.critical), secs(sh.busy)/shards)
	m["shard.serial_fallback_windows"] = float64(sh.fallbacks)

	m["hyperx.snapshot_s"] = secs(ly.snapshot)
	m["hyperx.restore_s"] = secs(ly.restore)
	m["hyperx.snapshot_pkts"] = float64(ly.snapPkts)

	harnessMetrics(m, []*hyperx.Manifest{ref.manifest}, c.workers)

	m["csv.write_ms"] = ms(csvWrite)
	m["csv.bytes"] = float64(buf.Len())

	runtimeMetrics(m, &ms0, &ms1)

	// Overhead: the traced pass against an untraced pass of the same
	// cells, both serial. The reference above ran on the workload's own
	// worker count; where that is more than one, pass walls do not
	// compare, so the facade runs the sweep once more on one worker.
	base := ref
	if c.workers > 1 {
		serial := c
		serial.workers = 1
		runtime.GC()
		if base, err = serial.run(ctx); err != nil {
			return nil, err
		}
	}
	m["trace.timer_ns"] = timerNS
	m["trace.overhead_frac"] = ratio(secs(tracedWall), secs(base.wall)) - 1
	m["trace.spans"] = float64(len(tr.spans))

	// Reconciliation: what the spans say each layer cost against what the
	// CPU profile of the same pass says its package cost.
	spanShare := map[string]float64{
		"sim":     simBusy,
		"network": m["network.pipeline_est_s"] + m["network.build_s"],
		"core":    m["core.route_busy_s"],
		"routing": m["routing.route_busy_s"],
		"traffic": destBusy,
		"stats":   delivBusy + m["stats.summarize_s"],
		"shard":   m["shard.coord_other_s"],
	}
	for k := range spanShare {
		spanShare[k] = ratio(spanShare[k], tracedCPU)
	}
	reconcile(rep, prof, spanShare)
	rep.notef("traced pass %.3f s wall, %.3f s CPU over %d cells; untraced serial pass %.3f s", secs(tracedWall), tracedCPU, i, secs(base.wall))

	path := filepath.Join(rc.outDir, "trace-"+rc.workload+".json")
	if err := tr.write(path, m); err != nil {
		return nil, err
	}
	rep.notef("%d spans written to %s", len(tr.spans), path)
	return rep, nil
}

// harnessMetrics folds run manifests into the harness.* metrics. Flight
// counters are the service's; the facade sweeps run without a flight.
func harnessMetrics(m map[string]float64, manifests []*hyperx.Manifest, workers int) {
	var jobs, completed, cancelled int
	var jobWall, wall float64
	for _, mf := range manifests {
		if mf == nil {
			continue
		}
		jobs += mf.NumJobs
		completed += mf.Completed
		cancelled += mf.Cancelled
		wall += mf.WallSeconds
		for _, jr := range mf.Jobs {
			jobWall += jr.WallSeconds
		}
	}
	m["harness.jobs"] = float64(jobs)
	m["harness.completed"] = float64(completed)
	m["harness.cancelled"] = float64(cancelled)
	m["harness.useful_job_frac"] = ratio(float64(completed), float64(completed+cancelled))
	m["harness.job_wall_sum_s"] = jobWall
	m["harness.pool_efficiency"] = ratio(jobWall, float64(workers)*wall)
}

func runtimeMetrics(m map[string]float64, before, after *runtime.MemStats) {
	m["go_runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	m["go_runtime.num_gc"] = float64(after.NumGC - before.NumGC)
	m["go_runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
}

// topologyBuildMS times the HyperX table precompute at the paper's scale.
func topologyBuildMS(cfg hyperx.Config) float64 {
	var ds []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := topology.NewHyperX(cfg.Widths, cfg.Terms); err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		ds = append(ds, ms(time.Since(t0)))
	}
	return median(ds)
}
