package main

import (
	"fmt"
	"os"
	"time"

	"hyperx"
	"hyperx/internal/sim"
)

// chainActor is the kernel micro-drive's model: 64 self-rescheduling
// chains of no-op typed events. Typed events only — the closure form
// (Kernel.At/After) has no production caller and is slated for removal.
type chainActor struct {
	k        *sim.Kernel
	limit    int
	executed int
	step     [64]int
}

// The network's delay spectrum: mostly now+1..4 (flit serialisation),
// sometimes a channel crossing (+50), rarely a far timer (+600).
var chainDeltas = [...]sim.Time{1, 2, 1, 3, 1, 4, 2, 1, 1, 2, 50, 1, 3, 1, 2, 600}

func (a *chainActor) Act(_ uint8, chain, _, _ int32, _ any) {
	a.executed++
	if a.executed >= a.limit {
		return
	}
	a.step[chain]++
	a.k.AfterAct(chainDeltas[a.step[chain]%len(chainDeltas)], a, 0, chain, 0, 0, nil)
}

// kernelMicroDrive returns the kernel's schedule+dispatch cost in ns per
// event, with no model attached.
func kernelMicroDrive(events int) float64 {
	k := sim.NewKernel()
	a := &chainActor{k: k, limit: events}
	for c := range a.step {
		a.step[c] = c
		k.AtAct(sim.Time(c%4), a, 0, int32(c), 0, 0, nil)
	}
	t0 := time.Now()
	k.Run(0)
	return float64(time.Since(t0)) / float64(a.executed)
}

// storeRecord is shaped like the facade's persisted load point.
type storeRecord struct {
	Point hyperx.LoadPoint `json:"point"`
	Stats struct {
		Cycles    int64  `json:"cycles"`
		Events    uint64 `json:"events"`
		Delivered uint64 `json:"delivered"`
	} `json:"stats"`
}

// storeMicroDrive times CheckpointStore.Save and Load on a scratch store:
// median ms per operation over n distinct keys.
func storeMicroDrive(dir string, n int) (saveMS, loadMS float64, err error) {
	scratch, err := os.MkdirTemp(dir, "ckpt-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(scratch)
	store, err := hyperx.OpenCheckpointDir(scratch)
	if err != nil {
		return 0, 0, err
	}
	rec := storeRecord{Point: hyperx.LoadPoint{Load: 0.6, Mean: 396.2, P50: 396, P99: 601, Accepted: 0.601, Samples: 1 << 20, Delivered: 1 << 20}}
	var saves, loads []float64
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("bench|store-micro|%d", i)
		t0 := time.Now()
		if err := store.Save(key, rec); err != nil {
			return 0, 0, err
		}
		saves = append(saves, ms(time.Since(t0)))
	}
	for i := 0; i < n; i++ {
		var got storeRecord
		t0 := time.Now()
		ok, err := store.Load(fmt.Sprintf("bench|store-micro|%d", i), &got)
		if err != nil || !ok {
			return 0, 0, fmt.Errorf("store micro-drive: load %d: hit=%v err=%v", i, ok, err)
		}
		loads = append(loads, ms(time.Since(t0)))
	}
	return median(saves), median(loads), nil
}
