package harness

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// waitForWaiters spins (yielding) until n followers are parked on key.
// The leader is held inside its compute function while this runs, so
// the rendezvous is deterministic: no follower can miss the flight.
func waitForWaiters(t *testing.T, fl *Flight, key string, n int32) {
	t.Helper()
	for fl.waitersFor(key) < n {
		runtime.Gosched()
	}
}

// TestFlightStampedeComputesOnce is the core dedup contract: N
// concurrent callers of one key trigger exactly one compute, and every
// other caller shares its value.
func TestFlightStampedeComputesOnce(t *testing.T) {
	const followers = 15
	fl := NewFlight()

	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		v, shared, err := fl.Do("cell", func() (any, bool, error) {
			close(entered) // leader is in the compute; hold it open
			<-release
			return 42, true, nil
		})
		if err != nil || shared || v.(int) != 42 {
			t.Errorf("leader: v=%v shared=%v err=%v", v, shared, err)
		}
	}()
	<-entered

	var wg sync.WaitGroup
	var ran atomic.Int32
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := fl.Do("cell", func() (any, bool, error) {
				ran.Add(1) // must never run: the leader's value is shared
				return -1, true, nil
			})
			if err != nil || !shared || v.(int) != 42 {
				t.Errorf("follower: v=%v shared=%v err=%v", v, shared, err)
			}
		}()
	}
	waitForWaiters(t, fl, "cell", followers)
	close(release)
	wg.Wait()
	<-leaderDone

	if got := fl.Computes(); got != 1 {
		t.Errorf("computes = %d, want exactly 1", got)
	}
	if got := fl.Shared(); got != followers {
		t.Errorf("shared = %d, want %d", got, followers)
	}
	if got := ran.Load(); got != 0 {
		t.Errorf("follower compute ran %d times, want 0", got)
	}
}

// TestFlightLeaderFailureHandsOff pins the non-poisoning contract: a
// leader's error is returned only to the leader itself; a waiting
// follower retries as the new leader instead of inheriting the failure.
func TestFlightLeaderFailureHandsOff(t *testing.T) {
	fl := NewFlight()
	boom := errors.New("cancelled by the leader's own run")

	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, shared, err := fl.Do("cell", func() (any, bool, error) {
			close(entered)
			<-release
			return nil, true, boom
		})
		if !errors.Is(err, boom) || shared {
			t.Errorf("leader: shared=%v err=%v, want its own error", shared, err)
		}
	}()
	<-entered

	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		v, shared, err := fl.Do("cell", func() (any, bool, error) {
			return 7, true, nil // the retry-as-leader path
		})
		if err != nil || shared || v.(int) != 7 {
			t.Errorf("follower retry: v=%v shared=%v err=%v", v, shared, err)
		}
	}()
	waitForWaiters(t, fl, "cell", 1)
	close(release)
	<-leaderDone
	<-followerDone

	if got := fl.Computes(); got != 2 {
		t.Errorf("computes = %d, want 2 (failed leader + retrying follower)", got)
	}
	if got := fl.Shared(); got != 0 {
		t.Errorf("shared = %d, want 0: an error must never be shared", got)
	}
}

// TestFlightDistinctKeysDoNotBlock: different keys compute
// independently and concurrently.
func TestFlightDistinctKeysDoNotBlock(t *testing.T) {
	fl := NewFlight()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := fl.Do(string(rune('a'+i)), func() (any, bool, error) { return i, true, nil })
			if err != nil || shared || v.(int) != i {
				t.Errorf("key %d: v=%v shared=%v err=%v", i, v, shared, err)
			}
		}()
	}
	wg.Wait()
	if got := fl.Computes(); got != 8 {
		t.Errorf("computes = %d, want 8", got)
	}
}

// TestFlightSequentialCallsEachCompute: dedup applies to concurrent
// callers only — a later call after the flight lands recomputes (the
// durable dedup layer is the checkpoint store, not the flight).
func TestFlightSequentialCallsEachCompute(t *testing.T) {
	fl := NewFlight()
	for i := 0; i < 3; i++ {
		if _, shared, err := fl.Do("cell", func() (any, bool, error) { return i, true, nil }); err != nil || shared {
			t.Fatalf("call %d: shared=%v err=%v", i, shared, err)
		}
	}
	if got := fl.Computes(); got != 3 {
		t.Errorf("computes = %d, want 3", got)
	}
}

// TestNilFlightJustComputes: a nil group is "no deduplication" — every Do
// runs its own fn and nothing is ever reported shared — so sweeps without
// a group need no second code path.
func TestNilFlightJustComputes(t *testing.T) {
	var fl *Flight
	boom := errors.New("boom")
	for i, want := range []error{nil, boom} {
		v, shared, err := fl.Do("cell", func() (any, bool, error) { return i, true, want })
		if v.(int) != i || shared || !errors.Is(err, want) {
			t.Errorf("nil Flight Do #%d = (%v, %v, %v), want (%d, false, %v)", i, v, shared, err, i, want)
		}
	}
}
