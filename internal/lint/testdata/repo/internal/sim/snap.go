// Fixture: seeded statecover violations on a Snapshot/Restore pair — a
// field captured but never restored, one on neither path, one restore only
// shape-checks, a reasoned exclusion the pass must honor, a reason-less
// exclusion it must reject, and a stale exclusion allowaudit must flag.
package sim

type Ticker struct {
	now   Time
	seq   uint64
	drift Time     // captured below but never restored: statecover finding
	marks []uint64 // on neither path: statecover finding
	//hxlint:state ephemeral — memo is rebuilt lazily on first post-restore use
	memo []uint64
	//hxlint:state ephemeral
	trace func(Time) // reason-less directive: rejected, field still reported
	//hxlint:state ephemeral — stale: flags is captured and restored below
	flags uint64
	carry []float64 // restore only checks its length: statecover finding
}

type TickerState struct {
	Now   Time
	Seq   uint64
	Flags uint64
	Carry []float64
}

func (t *Ticker) Snapshot() *TickerState {
	return &TickerState{Now: t.now + t.drift, Seq: t.seq, Flags: t.flags, Carry: t.carry}
}

func (t *Ticker) Restore(s *TickerState) {
	if len(s.Carry) != len(t.carry) {
		return
	}
	t.now = s.Now
	t.applySeq(s)
	t.flags = s.Flags
}

// applySeq exercises the transitive closure: seq is restored only through
// this helper.
func (t *Ticker) applySeq(s *TickerState) {
	t.seq = s.Seq
}
