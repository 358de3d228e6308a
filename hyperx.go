// Package hyperx is the public API of this reproduction of "Practical and
// Efficient Incremental Adaptive Routing for HyperX Networks" (McDonald et
// al., SC '19). It wires the internal substrates — event kernel, HyperX /
// Dragonfly / fat-tree topologies, the CIOQ router model with virtual-
// channel flow control, the routing algorithms (including the paper's
// DimWAR and OmniWAR), traffic generators, and the stencil application
// model — behind a small configuration surface that the cmd/ tools,
// examples, and benchmarks share.
package hyperx

import (
	"context"
	"fmt"

	"hyperx/internal/core"
	"hyperx/internal/network"
	"hyperx/internal/route"
	"hyperx/internal/routing"
	"hyperx/internal/shard"
	"hyperx/internal/sim"
	"hyperx/internal/topology"
	"hyperx/internal/traffic"
)

// Algorithms lists the HyperX routing algorithm names accepted by Config,
// in the paper's Table 2 order plus the extras this repo adds.
var Algorithms = []string{"DOR", "VAL", "UGAL", "UGAL+", "DimWAR", "OmniWAR", "MinAD", "DAL"}

// Patterns lists the synthetic traffic pattern names accepted by the run
// helpers, in the paper's Table 3 order plus the extras this repo adds.
var Patterns = []string{"UR", "BC", "URBx", "URBy", "URBz", "S2", "DCR", "TP", "TOR", "HS"}

// Config describes a HyperX simulation instance. Zero values take the
// paper's evaluation defaults scaled to the configured widths.
type Config struct {
	Widths []int // routers per dimension (default 4,4,4)
	Terms  int   // terminals per router (default 4)

	Algorithm string // one of Algorithms (default "DimWAR")

	NumVCs        int // default 8, at most 16
	BufDepth      int // flits per (port,VC), default 256
	MaxPktFlits   int // default 16
	XbarLat       int // ns, default 50
	RouterChanLat int // ns, default 50
	TermChanLat   int // ns, default 5

	// OmniClasses sets OmniWAR's N+M distance classes (default NumVCs).
	OmniClasses int
	// OmniNoB2B enables the Section 5.2 optimization restricting
	// back-to-back deroutes in the same dimension.
	OmniNoB2B bool

	// AtomicVCAlloc forces atomic queue allocation (Section 4.2). It is
	// implied by Algorithm "DAL".
	AtomicVCAlloc bool

	// ClassSense switches congestion sensing for routing weights from the
	// realistic per-port output-queue aggregate to idealized per-class
	// occupancy (ablation; see route.Ctx.ClassSense).
	ClassSense bool

	// Arbiter selects the output-arbitration policy: "age" (default, the
	// paper's configuration), "fifo", or "random" (ablation).
	Arbiter string

	// Faults is the number of failed router-to-router links to inject
	// (0 = pristine network). Links are chosen by a deterministic seeded
	// shuffle, resampled until the surviving network is connected; DimWAR
	// and OmniWAR reroute around the failures while the dimension-ordered
	// baselines drop (and count) packets that meet a dead hop.
	Faults int
	// FaultSeed seeds the fault selection (default: Seed), so the fault
	// pattern can be varied independently of the traffic universe.
	FaultSeed uint64

	Seed uint64
}

func (c Config) withDefaults() Config {
	if len(c.Widths) == 0 {
		c.Widths = []int{4, 4, 4}
	}
	if c.Terms == 0 {
		c.Terms = 4
	}
	if c.Algorithm == "" {
		c.Algorithm = "DimWAR"
	}
	if c.NumVCs == 0 {
		c.NumVCs = 8
	}
	if c.OmniClasses == 0 {
		c.OmniClasses = c.NumVCs
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.FaultSeed == 0 {
		c.FaultSeed = c.Seed
	}
	return c
}

// PaperScale returns the full evaluation configuration of Section 6: a
// 4,096-node 8x8x8 HyperX with 8 terminals per router and 8 VCs.
func PaperScale() Config {
	return Config{Widths: []int{8, 8, 8}, Terms: 8}
}

// DefaultScale returns the reduced 256-node 4x4x4 configuration used by
// the test suite and benchmarks (see DESIGN.md for the shape-fidelity
// argument).
func DefaultScale() Config {
	return Config{Widths: []int{4, 4, 4}, Terms: 4}
}

// Instance is a built simulation: kernel, network, topology, algorithm.
type Instance struct {
	//hxlint:state ephemeral — identity, not state: a snapshot restores only into an instance built from the identical Config
	Cfg Config
	//hxlint:state ephemeral — kernel state rides inside the network snapshot (Net.Snapshot embeds the kernel's events and clock)
	K *sim.Kernel
	//hxlint:state ephemeral — immutable build-time wiring derived from Config
	Topo *topology.HyperX
	//hxlint:state ephemeral — immutable build-time wiring derived from Config
	Alg route.Algorithm
	Net *network.Network
	//hxlint:state ephemeral — immutable build-time wiring derived from Config (FaultSeed)
	Faults *topology.FaultSet // nil when Cfg.Faults == 0

	// Cached sharded executor (lazily built on the first runCtx with
	// Shards > 1; rebuilt if the shard count or window width changes).
	//hxlint:state ephemeral — lazily rebuilt cache; shard machinery is empty between windows and never snapshotted
	shx *shard.Executor
	//hxlint:state ephemeral — cache key for shx, rebuilt with it
	shxN int
	//hxlint:state ephemeral — cache key for shx (resolved window width), rebuilt with it
	shxW sim.Time
}

// Close releases the instance's cached sharded executor — its persistent
// worker pool — if one was built. Safe on instances that never ran
// sharded; idempotent. The run helpers close instances they build; hold
// your own Instance open across runs to keep the pool warm.
func (inst *Instance) Close() {
	if inst.shx != nil {
		inst.shx.Close()
		inst.shx = nil
		inst.shxN, inst.shxW = 0, 0
	}
}

// shardWindow resolves the executor's window width from an override (in
// cycles; <= 0 derives the default) and the instance's configured
// latencies. The derived default is a conservative lookahead bound:
// min(XbarLat, RouterChanLat, TermChanLat) — any event can only schedule
// at least that far ahead. The hard cap is RouterChanLat,
// the minimum latency of any CROSS-SHARD schedule (router-to-router
// arrivals carry XbarLat+RouterChanLat, credits flits+RouterChanLat,
// and the fault-path drop credit exactly RouterChanLat; everything
// cheaper is same-shard and executes locally inside the window), so
// overrides beyond it are clamped rather than allowed to break the
// ownership argument.
func (inst *Instance) shardWindow(w sim.Time) sim.Time {
	cfg := &inst.Net.Cfg
	if w <= 0 {
		w = cfg.XbarLat
		if cfg.RouterChanLat < w {
			w = cfg.RouterChanLat
		}
		if cfg.TermChanLat < w {
			w = cfg.TermChanLat
		}
	}
	if w > cfg.RouterChanLat {
		w = cfg.RouterChanLat
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runCtx advances the instance's kernel to until: serially for
// shards <= 1, or through the window-barriered sharded executor
// otherwise. window <= 0 derives the width from the configured latencies
// (see shardWindow); the run helpers always pass 0, and only the
// golden-trace tests pin other widths. Every (shards, window)
// combination executes the bit-identical event sequence — the sharded
// executor's merge replays staged work in serial order (see
// internal/shard) — so results never depend on either, and
// RunOpts.Shards stays out of the checkpoint key. Shard counts beyond the
// router count are clamped.
func (inst *Instance) runCtx(ctx context.Context, until sim.Time, shards, window int) (sim.Time, error) {
	if nr := len(inst.Net.Routers); shards > nr {
		shards = nr
	}
	if shards <= 1 {
		return inst.K.RunCtx(ctx, until)
	}
	win := inst.shardWindow(sim.Time(window))
	if inst.shx == nil || inst.shxN != shards || inst.shxW != win {
		inst.Close()
		if err := inst.Net.ConfigureShards(shards); err != nil {
			return inst.K.Now(), err
		}
		inst.shx = shard.New(inst.K, inst.Net, win)
		inst.shxN, inst.shxW = shards, win
	}
	return inst.shx.RunCtx(ctx, until)
}

// faultAware is implemented by routing algorithms whose candidate
// generation can be restricted to live links (DimWAR, OmniWAR, MinAD).
type faultAware interface {
	SetFaults(*topology.FaultSet)
}

// BuildFaults constructs the deterministic fault set a Config implies:
// Faults failed links drawn by FaultSeed, resampled until the surviving
// network is connected. Returns nil (no error) when Faults == 0. Callers
// that only need the fault list for a manifest use this without paying
// for a network build.
func BuildFaults(cfg Config) (*topology.FaultSet, error) {
	cfg = cfg.withDefaults()
	if cfg.Faults == 0 {
		return nil, nil
	}
	h, err := topology.NewHyperX(cfg.Widths, cfg.Terms)
	if err != nil {
		return nil, err
	}
	return topology.RandomConnectedFaults(h, cfg.Faults, cfg.FaultSeed)
}

// NewAlgorithm constructs a HyperX routing algorithm by name.
func NewAlgorithm(name string, h *topology.HyperX, cfg Config) (route.Algorithm, error) {
	switch name {
	case "DOR":
		return routing.NewDOR(h), nil
	case "VAL":
		return routing.NewVAL(h), nil
	case "UGAL":
		return routing.NewUGAL(h), nil
	case "UGAL+", "Clos-AD", "ClosAD":
		return routing.NewClosAD(h), nil
	case "DimWAR":
		return core.NewDimWAR(h), nil
	case "OmniWAR":
		return core.NewOmniWAR(h, cfg.OmniClasses, cfg.OmniNoB2B)
	case "MinAD":
		return routing.NewMinAD(h), nil
	case "DAL":
		return routing.NewDAL(h), nil
	default:
		return nil, fmt.Errorf("hyperx: unknown algorithm %q (have %v)", name, Algorithms)
	}
}

// NewPattern constructs a synthetic traffic pattern by name for the given
// HyperX.
func NewPattern(name string, h *topology.HyperX) (traffic.Pattern, error) {
	n := h.NumTerminals()
	switch name {
	case "UR":
		return traffic.UniformRandom{N: n}, nil
	case "BC":
		return traffic.BitComplement{N: n}, nil
	case "URBx":
		return traffic.URB{Topo: h, Dim: 0}, nil
	case "URBy":
		return traffic.URB{Topo: h, Dim: 1}, nil
	case "URBz":
		return traffic.URB{Topo: h, Dim: 2}, nil
	case "S2":
		return traffic.Swap2{Topo: h}, nil
	case "DCR":
		return traffic.DCR{Topo: h}, nil
	case "TP":
		return traffic.Transpose{Topo: h}, nil
	case "TOR":
		return traffic.Tornado{Topo: h}, nil
	case "HS":
		// 20% of traffic converges on terminal 0 — the Section 3.2
		// localized-congestion scenario.
		return traffic.Hotspot{N: n, Hot: 0, Fraction: 0.2}, nil
	default:
		return nil, fmt.Errorf("hyperx: unknown pattern %q (have %v)", name, Patterns)
	}
}

// Build constructs a ready-to-run simulation instance from a Config.
func Build(cfg Config) (*Instance, error) {
	cfg = cfg.withDefaults()
	h, err := topology.NewHyperX(cfg.Widths, cfg.Terms)
	if err != nil {
		return nil, err
	}
	alg, err := NewAlgorithm(cfg.Algorithm, h, cfg)
	if err != nil {
		return nil, err
	}
	var faults *topology.FaultSet
	if cfg.Faults > 0 {
		faults, err = topology.RandomConnectedFaults(h, cfg.Faults, cfg.FaultSeed)
		if err != nil {
			return nil, err
		}
		if fa, ok := alg.(faultAware); ok {
			fa.SetFaults(faults)
		}
	}
	atomic := cfg.AtomicVCAlloc || cfg.Algorithm == "DAL"
	var arb network.Arbiter
	switch cfg.Arbiter {
	case "", "age":
		arb = network.AgeArbiter
	case "fifo":
		arb = network.FIFOArbiter
	case "random":
		arb = network.RandomArbiter
	default:
		return nil, fmt.Errorf("hyperx: unknown arbiter %q (age, fifo, random)", cfg.Arbiter)
	}
	k := sim.NewKernel()
	net, err := network.New(k, network.Config{
		Topo:          h,
		Alg:           alg,
		NumVCs:        cfg.NumVCs,
		BufDepth:      cfg.BufDepth,
		MaxPktFlits:   cfg.MaxPktFlits,
		XbarLat:       sim.Time(cfg.XbarLat),
		RouterChanLat: sim.Time(cfg.RouterChanLat),
		TermChanLat:   sim.Time(cfg.TermChanLat),
		AtomicVCAlloc: atomic,
		ClassSense:    cfg.ClassSense,
		Arbiter:       arb,
		Faults:        faults,
		Seed:          cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Instance{Cfg: cfg, K: k, Topo: h, Alg: alg, Net: net, Faults: faults}, nil
}

// MustBuild is Build that panics on error; for tests and examples with
// constant configurations.
func MustBuild(cfg Config) *Instance {
	inst, err := Build(cfg)
	if err != nil {
		panic(err)
	}
	return inst
}
