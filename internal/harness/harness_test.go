package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeJob builds a deterministic synthetic job: value = 100*curve + point,
// saturated iff point >= satAt, optionally sleeping (cancellably) first.
func fakeJob(curve, point, satAt int, sleep time.Duration) Job {
	return Job{
		Curve: curve,
		Point: point,
		Label: fmt.Sprintf("c%d@p%d", curve, point),
		Seed:  uint64(curve),
		Run: func(ctx context.Context) (Outcome, error) {
			if sleep > 0 {
				select {
				case <-time.After(sleep):
				case <-ctx.Done():
					return Outcome{}, ctx.Err()
				}
			}
			return Outcome{
				Saturated: point >= satAt,
				Cycles:    int64(1000 + point),
				Events:    uint64(10 * (point + 1)),
				Value:     100*curve + point,
			}, nil
		},
	}
}

// truncate extracts curve c's points in ascending order, stopping after
// the first saturated one — the same assembly rule the facade applies.
func truncate(rr *RunResult, curve, npoints int) []int {
	byPoint := make(map[int]JobResult)
	for _, jr := range rr.Jobs {
		if jr.Job.Curve == curve {
			byPoint[jr.Job.Point] = jr
		}
	}
	var out []int
	for p := 0; p < npoints; p++ {
		jr, ok := byPoint[p]
		if !ok || !jr.Done {
			break
		}
		out = append(out, jr.Outcome.Value.(int))
		if jr.Outcome.Saturated {
			break
		}
	}
	return out
}

// TestDeterministicAcrossWorkerCounts: the truncated curves are identical
// for every worker count, matching the serial (1-worker) result.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	const curves, points = 3, 6
	satAt := []int{2, 4, 99} // curve 2 never saturates
	mk := func() []Job {
		var jobs []Job
		for c := 0; c < curves; c++ {
			for p := 0; p < points; p++ {
				jobs = append(jobs, fakeJob(c, p, satAt[c], 0))
			}
		}
		SortForSpeculation(jobs)
		return jobs
	}
	var baseline [][]int
	for _, workers := range []int{1, 3, 8} {
		rr, err := Run(context.Background(), mk(), Options{Workers: workers, EarlyStop: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var got [][]int
		for c := 0; c < curves; c++ {
			got = append(got, truncate(rr, c, points))
		}
		if baseline == nil {
			baseline = got
			// Serial shape checks: curve 0 ends at its first saturated
			// point (index 2 → 3 points), curve 2 runs all points.
			if len(got[0]) != 3 || len(got[1]) != 5 || len(got[2]) != points {
				t.Fatalf("serial truncation lengths wrong: %v", got)
			}
			continue
		}
		for c := range got {
			if fmt.Sprint(got[c]) != fmt.Sprint(baseline[c]) {
				t.Errorf("workers=%d curve %d: %v, serial %v", workers, c, got[c], baseline[c])
			}
		}
	}
}

// TestEarlyStopNeverDropsPreSaturationPoints: adversarial timing — the
// saturating point finishes first while lower points are still running —
// must never cancel a point at or below the curve's first saturated index.
func TestEarlyStopNeverDropsPreSaturationPoints(t *testing.T) {
	const points, satAt = 5, 3
	var jobs []Job
	for p := 0; p < points; p++ {
		sleep := 30 * time.Millisecond // slow pre-saturation points
		if p >= satAt {
			sleep = 0 // the saturated point (and beyond) return instantly
		}
		jobs = append(jobs, fakeJob(0, p, satAt, sleep))
	}
	rr, err := Run(context.Background(), jobs, Options{Workers: points, EarlyStop: true})
	if err != nil {
		t.Fatal(err)
	}
	got := truncate(rr, 0, points)
	if len(got) != satAt+1 {
		t.Fatalf("curve = %v, want all %d points up to and including saturation", got, satAt+1)
	}
	for _, jr := range rr.Jobs {
		if jr.Job.Point <= satAt && !jr.Done {
			t.Errorf("pre-saturation point %d was not run to completion: %+v", jr.Job.Point, jr)
		}
	}
	// Bookkeeping always adds up.
	m := rr.Manifest
	if m.Completed+m.Cancelled+m.Failed != m.NumJobs {
		t.Errorf("manifest counts inconsistent: %+v", m)
	}
}

// TestEarlyStopCancelsRunningSuccessors: a long-running point past the
// saturation index is cancelled mid-flight via its context.
func TestEarlyStopCancelsRunningSuccessors(t *testing.T) {
	jobs := []Job{
		fakeJob(0, 0, 0, 0),              // saturates immediately
		fakeJob(0, 1, 0, 10*time.Second), // must be cancelled, not waited for
		fakeJob(0, 2, 0, 10*time.Second), // likely skipped before starting
	}
	startAt := time.Now()
	rr, err := Run(context.Background(), jobs, Options{Workers: 3, EarlyStop: true})
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(startAt); wall > 5*time.Second {
		t.Fatalf("run took %v; cancellation did not interrupt successors", wall)
	}
	if !rr.Jobs[0].Done || !rr.Jobs[0].Outcome.Saturated {
		t.Fatalf("saturated point not recorded: %+v", rr.Jobs[0])
	}
	for _, idx := range []int{1, 2} {
		if !rr.Jobs[idx].Cancelled {
			t.Errorf("job %d should be cancelled: %+v", idx, rr.Jobs[idx])
		}
	}
}

// TestJobErrorAbortsRun: one failing job cancels the rest and surfaces
// its error (wrapped with the job label) from Run.
func TestJobErrorAbortsRun(t *testing.T) {
	boom := errors.New("boom")
	jobs := []Job{
		fakeJob(0, 0, 99, 0),
		{Curve: 0, Point: 1, Label: "c0@p1", Run: func(context.Context) (Outcome, error) {
			return Outcome{}, boom
		}},
		fakeJob(0, 2, 99, time.Minute),
	}
	rr, err := Run(context.Background(), jobs, Options{Workers: 1, EarlyStop: true})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "c0@p1") {
		t.Errorf("error should carry the job label: %v", err)
	}
	if rr.Manifest.Failed != 1 {
		t.Errorf("manifest failed = %d, want 1", rr.Manifest.Failed)
	}
	if !rr.Jobs[2].Cancelled {
		t.Errorf("job after the failure should be cancelled: %+v", rr.Jobs[2])
	}
}

// TestCallerCancellation: cancelling the run context aborts promptly and
// reports context.Canceled.
func TestCallerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var startedJobs atomic.Int32
	var jobs []Job
	for p := 0; p < 8; p++ {
		p := p
		jobs = append(jobs, Job{
			Curve: 0, Point: p, Label: fmt.Sprintf("c0@p%d", p),
			Run: func(jctx context.Context) (Outcome, error) {
				startedJobs.Add(1)
				if p == 0 {
					cancel()
				}
				select {
				case <-time.After(10 * time.Second):
					return Outcome{Value: p}, nil
				case <-jctx.Done():
					return Outcome{}, jctx.Err()
				}
			},
		})
	}
	start := time.Now()
	_, err := Run(ctx, jobs, Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("caller cancellation did not abort the run promptly")
	}
	if n := startedJobs.Load(); n > 3 {
		t.Errorf("%d jobs started after cancellation", n)
	}
}

// TestManifestAggregates: totals are the sums over completed jobs and the
// records surface per-job wall time and rates.
func TestManifestAggregates(t *testing.T) {
	var jobs []Job
	for p := 0; p < 4; p++ {
		jobs = append(jobs, fakeJob(0, p, 99, time.Millisecond))
	}
	var lines []string
	rr, err := Run(context.Background(), jobs, Options{
		Workers: 2,
		OnEvent: func(ev Event) { lines = append(lines, ev.Label) },
	})
	if err != nil {
		t.Fatal(err)
	}
	m := rr.Manifest
	if m.Completed != 4 || m.NumJobs != 4 || m.Workers != 2 {
		t.Fatalf("manifest header wrong: %+v", m)
	}
	// Events per fake job: 10*(p+1) → total 100; cycles 1000+p → 4006.
	if m.TotalEvents != 100 || m.TotalSimCycles != 4006 {
		t.Errorf("aggregates = %d events, %d cycles; want 100, 4006", m.TotalEvents, m.TotalSimCycles)
	}
	for _, rec := range m.Jobs {
		if rec.Status != "done" || rec.WallSeconds <= 0 || rec.EventsPerSec <= 0 {
			t.Errorf("job record missing observability fields: %+v", rec)
		}
	}
	if m.WallSeconds <= 0 || m.EventsPerSec <= 0 {
		t.Errorf("run-level observability missing: %+v", m)
	}
	if len(lines) != 4 {
		t.Errorf("progress lines = %d, want 4", len(lines))
	}
	var buf strings.Builder
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"workers": 2`, `"events_per_sec"`, `"wall_seconds"`, `"c0@p3"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("manifest JSON missing %s", want)
		}
	}
}
