package traffic

import (
	"fmt"

	"hyperx/internal/network"
	"hyperx/internal/rng"
	"hyperx/internal/sim"
)

// SizeDist draws packet lengths in flits.
type SizeDist interface {
	Draw(rs *rng.Source) int
	Mean() float64
}

// UniformSize draws uniformly in [Min, Max] flits — the paper's
// evaluation uses 1..16.
type UniformSize struct {
	Min, Max int
}

// Draw implements SizeDist.
func (u UniformSize) Draw(rs *rng.Source) int {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + rs.Intn(u.Max-u.Min+1)
}

// Mean implements SizeDist.
func (u UniformSize) Mean() float64 { return float64(u.Min+u.Max) / 2 }

// FixedSize always draws the same length.
type FixedSize int

// Draw implements SizeDist.
func (f FixedSize) Draw(*rng.Source) int { return int(f) }

// Mean implements SizeDist.
func (f FixedSize) Mean() float64 { return float64(f) }

// Generator drives open-loop steady-state injection: every terminal
// independently injects packets with exponentially distributed
// interarrival gaps whose mean realizes the configured offered load
// (in flits per cycle per terminal, 1.0 = channel capacity).
type Generator struct {
	//hxlint:state ephemeral — wiring: a restore target drives its own network, rebound at construction
	Net *network.Network
	//hxlint:state ephemeral — stateless value type (no pattern holds mutable state); shared freely across forks
	Pattern Pattern
	//hxlint:state ephemeral — stateless value type; shared freely across forks
	Sizes SizeDist
	Load  float64

	// OnBirth, if set, observes every generated packet (for stats).
	//hxlint:state ephemeral — measurement observer; every run point rebinds its own collector after restore
	OnBirth func(src, dst, flits int, at sim.Time)

	// SelfRedirects counts packets whose pattern mapped a source onto
	// itself and that were redirected to the next terminal. Random
	// patterns re-draw internally so this stays zero for them; only the
	// fixed points of deterministic permutation patterns (e.g. a tornado
	// shift on a width-1 dimension) land here.
	SelfRedirects uint64

	stopped bool
	streams []rng.Source
	carry   []float64 // per-terminal fractional-cycle remainder of the gap sequence

	// ids: terminal t's injections are the kernel actor id base+t, which
	// Start registers once per kernel (on, the kernel it registered with).
	//hxlint:state ephemeral — build-time wiring: the restore target's Start registers the same ids
	base int32
	//hxlint:state ephemeral — build-time wiring, with base
	on *sim.Kernel
}

// Start begins injection on every terminal. The first packet of each
// terminal arrives after a randomized initial gap so sources are not
// phase-aligned. The first Start on a kernel registers the generator with
// it, one actor id per terminal, so every injection belongs to its
// terminal's shard.
func (g *Generator) Start(seed uint64) {
	if g.Load <= 0 {
		panic("traffic: Load must be positive")
	}
	if g.on != g.Net.K {
		g.base, g.on = g.Net.K.Register(g, len(g.Net.Terminals)), g.Net.K
	}
	//hxlint:allow seedflow — frozen stream constant: every published sweep CSV (fig6*, resilience) was produced from this exact XOR-separated stream, and rewriting it through DeriveSeed would change every result byte; new streams must use rng.DeriveSeed
	master := rng.New(seed ^ 0xdeadbeefcafef00d)
	n := len(g.Net.Terminals)
	g.streams = master.DeriveN(0, n)
	g.carry = make([]float64, n)
	for t := 0; t < n; t++ {
		g.scheduleNext(t, g.initialGap(t))
	}
}

// Stop ceases all future injection; packets already queued still drain.
func (g *Generator) Stop() { g.stopped = true }

// Stopped reports whether the generator has been stopped.
func (g *Generator) Stopped() bool { return g.stopped }

func (g *Generator) initialGap(t int) sim.Time {
	mean := g.Sizes.Mean() / g.Load
	exact := g.streams[t].Float64() * mean
	gap := sim.Time(exact)
	g.carry[t] = exact - float64(gap)
	return gap
}

// Act implements sim.Actor: each firing injects one packet on terminal a
// and schedules that terminal's next injection. Typed events keep the
// per-packet scheduling cost allocation-free; the op code is unused since
// injection is the generator's only event kind.
func (g *Generator) Act(_ uint8, a, _, _ int32, _ any) {
	g.inject(int(a))
}

func (g *Generator) scheduleNext(t int, gap sim.Time) {
	g.Net.TerminalShard(t).After(gap, g.base+int32(t), 0, int32(t), 0, 0)
}

// ShardOf implements sim.Sharded: the injection events of the generator's
// t-th id touch terminal t's source queue and its router's shard-staged
// state, plus the generator's own stream for t — all owned by the
// terminal's router's shard.
func (g *Generator) ShardOf(t int) int {
	return g.Net.ShardOfTerminal(t)
}

func (g *Generator) inject(t int) {
	if g.stopped {
		return
	}
	rs := &g.streams[t]
	size := g.Sizes.Draw(rs)
	dst := g.Pattern.Dest(t, rs)
	sc := g.Net.TerminalShard(t)
	if dst == t {
		// A deterministic permutation pattern can map a degenerate source
		// onto itself; redirect to the next terminal and count it rather
		// than silently rewriting the traffic matrix.
		sc.Count(&g.SelfRedirects)
		dst = (t + 1) % len(g.Net.Terminals)
	}
	p := g.Net.NewPacket(t, dst, size)
	if g.OnBirth != nil {
		sc.Birth(g.OnBirth, t, dst, size)
	}
	g.Net.Terminals[t].Send(p)
	// Mean gap of size/Load cycles keeps the long-run flit rate at Load.
	// Truncating each exponential draw to whole cycles shaves an expected
	// half cycle per packet, and flooring the result at 1 inflates the
	// short-gap tail — together a load-dependent bias of several percent.
	// Instead carry the fractional remainder into the next draw, so each
	// terminal's integer gap sequence sums to the exact exponential one.
	exact := rs.Exponential(float64(size)/g.Load) + g.carry[t]
	gap := sim.Time(exact)
	g.carry[t] = exact - float64(gap)
	g.scheduleNext(t, gap)
}

// GenState is the generator's complete mutable state in relocatable form,
// the traffic half of the warm-state snapshot contract (docs/STATE.md).
// Pattern and size-distribution values are stateless and re-derivable from
// configuration, so only the per-terminal stream positions, fractional-gap
// carries, and counters are captured. Load is included so a checkpointed
// run resumes at the exact offered load it was saved at; warm-fork callers
// overwrite Generator.Load after Restore to retarget the fork.
type GenState struct {
	Streams       []uint64  `json:"streams"` // per-terminal rng resume tokens
	Carry         []float64 `json:"carry"`
	Load          float64   `json:"load"`
	SelfRedirects uint64    `json:"self_redirects"`
	Stopped       bool      `json:"stopped"`
}

// Snapshot captures the generator's mutable state. The generator's pending
// injection events live on the shared kernel and are captured by the
// network snapshot (the generator is passed as an external actor there).
func (g *Generator) Snapshot() *GenState {
	s := &GenState{
		Streams:       make([]uint64, len(g.streams)),
		Carry:         make([]float64, len(g.carry)),
		Load:          g.Load,
		SelfRedirects: g.SelfRedirects,
		Stopped:       g.stopped,
	}
	for i := range g.streams {
		s.Streams[i] = g.streams[i].State()
	}
	copy(s.Carry, g.carry)
	return s
}

// Restore rewinds the generator to a snapshotted state. The generator must
// have been started (Start derives the stream slab) with the same terminal
// count as the snapshot; streams are restored by value, never re-derived,
// so the resumed gap and destination sequences are exactly the captured
// run's.
func (g *Generator) Restore(s *GenState) error {
	if len(s.Streams) != len(g.streams) || len(s.Carry) != len(g.carry) {
		return fmt.Errorf("traffic: restore: snapshot has %d/%d terminal streams/carries, generator has %d/%d",
			len(s.Streams), len(s.Carry), len(g.streams), len(g.carry))
	}
	for i := range g.streams {
		g.streams[i].SetState(s.Streams[i])
	}
	copy(g.carry, s.Carry)
	g.Load = s.Load
	g.SelfRedirects = s.SelfRedirects
	g.stopped = s.Stopped
	return nil
}

// TotalQueued returns the aggregate source-queue depth across terminals —
// a saturation signal.
func (g *Generator) TotalQueued() int {
	total := 0
	for _, t := range g.Net.Terminals {
		total += t.QueueLen()
	}
	return total
}
