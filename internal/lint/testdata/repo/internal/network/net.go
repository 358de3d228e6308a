// Fixture: seeded stagesafe violations — a multi-shard actor (ShardOf
// consults the event) whose Act-reachable helpers mutate shared state
// without going through the execution context, next to the one guard
// idiom the pass honors: the fall-through after an early-returning
// `if x.sharded` branch.
package network

import "hyperx/internal/sim"

type ShardState struct {
	Stage   *sim.Stage
	sharded bool
}

func (sc *ShardState) stageCount(delta uint64) {}

type Network struct {
	K         *sim.Kernel
	sc        *ShardState
	Delivered uint64
	Dropped   uint64
	OnDeliver func(uint64)
}

// ShardOf consults the event, so Network state is visible to every shard:
// direct writes on the Act path must be staged or serial-guarded.
func (n *Network) ShardOf(_ uint8, a, _, _ int32, _ any) int {
	return int(a) % 2
}

func (n *Network) Act(op uint8, a, b, c int32, p any) {
	n.deliver(a)
}

func (n *Network) deliver(a int32) {
	n.Delivered++ // violation: unstaged counter on the parallel path
	n.count()
	n.notify()
	n.tally()
	n.retry(a)
}

func (n *Network) count() {
	if n.sc.sharded {
		n.sc.stageCount(1)
		n.Dropped++ // violation: direct write inside the sharded branch
		return
	}
	n.Dropped++ // early-return guard: exempt
}

func (n *Network) notify() {
	if n.sc.sharded {
		n.OnDeliver(n.Delivered) // violation: unstaged observer invocation
		return
	}
	if n.OnDeliver != nil {
		n.OnDeliver(n.Delivered) // early-return guard: exempt
	}
}

// tally's else branch is not a guard: only the early return is.
func (n *Network) tally() {
	if n.sc.sharded {
		n.sc.stageCount(1)
	} else {
		n.Dropped++ // violation: an else branch is not serial-guarded
	}
}

func (n *Network) retry(a int32) {
	n.schedule(a)
	n.K.AfterAct(1, n, 0, a, 0, 0, nil) // violation: unstaged kernel schedule
}

func (n *Network) schedule(a int32) *sim.Event {
	if n.sc.sharded {
		return n.sc.Stage.AtAct(2, n, 0, a, 0, 0, nil)
	}
	return n.K.AtAct(2, n, 0, a, 0, 0, nil) // early-return guard: exempt
}

// merge runs only on the coordinator after the barrier; it is not
// reachable from Act, so its direct writes are exempt.
func (n *Network) merge() {
	n.Delivered++
	n.Dropped++
}

// Record is the sim.Recorder entry point Stage.RunWindow invokes per
// in-window event on the parallel phase: it is a root exactly like Act,
// so an unstaged mutation reachable from it must be flagged.
func (n *Network) Record(at sim.Time, seq uint64, ev *sim.Event) {
	n.Delivered++ // violation: unstaged counter on the Record path
}
