package sim

import (
	"fmt"
	"testing"
)

// snapActor is a self-rescheduling typed actor whose execution history is
// observable, for checkpoint equivalence tests.
type snapActor struct {
	k     *Kernel
	trace []string
	stop  Time
	gen   int32 // an expiring event has expired once its c differs
}

func (a *snapActor) Expired(_ uint8, _, _, c int32) bool { return c != a.gen }

func (a *snapActor) Act(op uint8, x, y, _ int32, p any) {
	a.trace = append(a.trace, fmt.Sprintf("%d:%d:%d:%d", a.k.Now(), op, x, y))
	if a.k.Now() >= a.stop {
		return
	}
	// Linear chains mixing near, far (beyond the ring window), and
	// same-cycle targets: op0 -> op1 -> op2 -> op0.
	switch op {
	case 0:
		a.k.AfterAct(1, a, 1, x+1, y, 0, p)
	case 1:
		a.k.AfterAct(ringSize+50, a, 2, x, y+1, 0, nil)
	case 2:
		a.k.AfterAct(7, a, 0, x+2, y, 0, nil)
	}
}

// TestKernelSnapshotRestoreResumesIdentically pins the core contract:
// snapshot mid-run, keep running to the end, then restore and re-run —
// the resumed half must replay the exact same (time, op, args) sequence
// and end with identical kernel counters.
func TestKernelSnapshotRestoreResumesIdentically(t *testing.T) {
	k := NewKernel()
	a := &snapActor{k: k, stop: 5000}
	for i := 0; i < 8; i++ {
		k.AtAct(Time(i), a, 0, int32(i), 0, 0, nil)
	}
	k.Run(1500)

	snap, err := k.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Now != k.Now() || snap.Seq == 0 || len(snap.Events) == 0 {
		t.Fatalf("implausible snapshot: now=%d seq=%d events=%d", snap.Now, snap.Seq, len(snap.Events))
	}

	mark := len(a.trace)
	k.Run(6000)
	want := append([]string(nil), a.trace[mark:]...)
	wantNow, wantExec, wantSeq := k.Now(), k.Executed(), k.seq

	if err := k.Restore(snap, nil); err != nil {
		t.Fatal(err)
	}
	if k.Now() != snap.Now || k.Executed() != snap.Exec || k.Pending() != len(snap.Events) {
		t.Fatalf("restore state: now=%d exec=%d pending=%d, want %d/%d/%d",
			k.Now(), k.Executed(), k.Pending(), snap.Now, snap.Exec, len(snap.Events))
	}
	a.trace = a.trace[:0]
	k.Run(6000)
	if k.Now() != wantNow || k.Executed() != wantExec || k.seq != wantSeq {
		t.Fatalf("resumed run ended at now=%d exec=%d seq=%d, want %d/%d/%d",
			k.Now(), k.Executed(), k.seq, wantNow, wantExec, wantSeq)
	}
	if len(a.trace) != len(want) {
		t.Fatalf("resumed run executed %d events, want %d", len(a.trace), len(want))
	}
	for i := range want {
		if a.trace[i] != want[i] {
			t.Fatalf("resumed run diverges at event %d: got %s want %s", i, a.trace[i], want[i])
		}
	}
}

// TestKernelSnapshotSkipsDeadEvents ensures expired events vanish from
// the snapshot without perturbing the live schedule.
func TestKernelSnapshotSkipsDeadEvents(t *testing.T) {
	k := NewKernel()
	a := &snapActor{k: k, stop: 0}
	k.AtAct(10, a, 0, 1, 0, 0, nil)
	k.AtAct(20, a, OpExpires, 2, 0, 0, nil)
	a.gen++
	snap, err := k.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Events) != 1 || snap.Events[0].At != 10 {
		t.Fatalf("snapshot events = %+v, want just the live t=10 event", snap.Events)
	}
	if err := k.Restore(snap, nil); err != nil {
		t.Fatal(err)
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d after restore, want 1", k.Pending())
	}
	k.Run(0)
	if len(a.trace) != 1 || a.trace[0] != "10:0:1:0" {
		t.Fatalf("trace = %v, want the single live event", a.trace)
	}
}

// TestKernelRestoreRejectsMalformedState exercises the validation paths.
func TestKernelRestoreRejectsMalformedState(t *testing.T) {
	k := NewKernel()
	a := &snapActor{k: k}
	k.Register(a, 1)
	k.Register(fn(func(int32) {}), 1) // no Expirer
	bad := []*KernelState{
		{Now: 100, Seq: 5, Events: []EventState{{At: 50, Seq: 1, Actor: 0}}},                         // behind the clock
		{Now: 100, Seq: 5, Events: []EventState{{At: 150, Seq: 9, Actor: 0}}},                        // seq beyond counter
		{Now: 0, Seq: 5, Events: []EventState{{At: 5, Seq: 2, Actor: 0}, {At: 5, Seq: 1, Actor: 0}}}, // out of order
		{Now: 0, Seq: 5, Events: []EventState{{At: 5, Seq: 1, Actor: 77}}},                           // unknown actor
		{Now: 0, Seq: 5, Events: []EventState{{At: 5, Seq: 1, Actor: -1}}},                           // negative actor
		{Now: 0, Seq: 5, Events: []EventState{{At: 5, Seq: 1, Actor: 1, Op: OpExpires}}},             // expiring op for a non-Expirer
	}
	for i, s := range bad {
		if err := k.Restore(s, nil); err == nil {
			t.Fatalf("case %d: restore of malformed state succeeded", i)
		}
	}
}
