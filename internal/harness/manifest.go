package harness

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"time"
)

// JobRecord is the manifest entry for one job: identity, fate, and the
// observability counters sampled when it finished. Speculative points
// cancelled by early stop appear with Status "cancelled" and zero
// counters — they are part of the run's cost story even though their
// measurements are discarded.
type JobRecord struct {
	Label string `json:"label"`
	Curve int    `json:"curve"`
	Point int    `json:"point"`
	Seed  uint64 `json:"seed"`

	Status string `json:"status"` // "done", "cancelled", or "failed"
	Error  string `json:"error,omitempty"`

	// Cached marks a job whose result was not simulated by this job: it
	// was served from the checkpoint store, or shared from a concurrent
	// identical computation in another sweep (Flight dedup). Its counters
	// describe the run that actually produced the result.
	Cached bool `json:"cached,omitempty"`

	Saturated    bool    `json:"saturated,omitempty"`
	WallSeconds  float64 `json:"wall_seconds"`
	SimCycles    int64   `json:"sim_cycles"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	Delivered    uint64  `json:"delivered"`
	Dropped      uint64  `json:"dropped,omitempty"`
}

// Manifest is the machine-readable record of one engine run: pool shape,
// wall time, aggregate simulation counters, and one JobRecord per job
// sorted by (curve, point). cmd/hxsweep writes it next to the CSV so a
// result file always has a companion saying how it was produced and what
// it cost.
type Manifest struct {
	Workers     int       `json:"workers"`
	StartedAt   time.Time `json:"started_at"`
	WallSeconds float64   `json:"wall_seconds"`

	NumJobs   int `json:"num_jobs"`
	Completed int `json:"completed"`
	Cancelled int `json:"cancelled"`
	Failed    int `json:"failed"`

	TotalSimCycles int64   `json:"total_sim_cycles"`
	TotalEvents    uint64  `json:"total_events"`
	EventsPerSec   float64 `json:"events_per_sec"` // aggregate across the pool

	// Faults records the injected link failures shared by every job of a
	// faulted sweep ("rA.pA<->rB.pB" per link); empty for pristine runs.
	// TotalDelivered / TotalDropped aggregate the per-job packet fates —
	// the headline "how much survived" numbers of a resilience run.
	Faults         []string `json:"faults,omitempty"`
	TotalDelivered uint64   `json:"total_delivered"`
	TotalDropped   uint64   `json:"total_dropped,omitempty"`

	// Provenance records how the results were produced beyond plain
	// cold-start simulation (warm forking, checkpoint resume); nil means
	// every job was simulated cold in this run. The facade fills it.
	Provenance *Provenance `json:"provenance,omitempty"`

	Jobs []JobRecord `json:"jobs"`
}

// Provenance is the auditability record for sweeps that reuse state:
// which fork methodology produced the numbers, the seed the shared warm
// phase ran under, where the fork point sat, and which checkpoint store
// cached results were served from. See docs/STATE.md for the methodology
// contract behind each mode.
type Provenance struct {
	Mode        string  `json:"mode"`                   // "cold" or "warm-fork"
	WarmSeed    uint64  `json:"warm_seed,omitempty"`    // seed of the shared warm phase (warm-fork mode)
	ForkCycles  int     `json:"fork_cycles,omitempty"`  // fork point, cycles into the warm phase
	ForkLoad    float64 `json:"fork_load,omitempty"`    // offered load during the warm phase
	ForkSettle  int     `json:"fork_settle,omitempty"`  // post-fork settle cycles per point
	ResumedFrom string  `json:"resumed_from,omitempty"` // checkpoint directory serving cached jobs
	CachedJobs  int     `json:"cached_jobs,omitempty"`  // jobs served from the store this run
}

func buildManifest(rr *RunResult, workers int, started time.Time, wall time.Duration) *Manifest {
	m := &Manifest{
		Workers:     workers,
		StartedAt:   started.UTC(),
		WallSeconds: wall.Seconds(),
		NumJobs:     len(rr.Jobs),
	}
	for _, jr := range rr.Jobs {
		rec := JobRecord{
			Label: jr.Job.Label,
			Curve: jr.Job.Curve,
			Point: jr.Job.Point,
			Seed:  jr.Job.Seed,
		}
		switch {
		case jr.Done:
			m.Completed++
			rec.Status = "done"
			rec.Cached = jr.Outcome.Cached
			rec.Saturated = jr.Outcome.Saturated
			rec.WallSeconds = jr.wall.Seconds()
			rec.SimCycles = jr.Outcome.Cycles
			rec.Events = jr.Outcome.Events
			rec.EventsPerSec = float64(jr.Outcome.Events) / math.Max(jr.wall.Seconds(), 1e-9)
			rec.Delivered = jr.Outcome.Delivered
			rec.Dropped = jr.Outcome.Dropped
			m.TotalSimCycles += jr.Outcome.Cycles
			m.TotalEvents += jr.Outcome.Events
			m.TotalDelivered += jr.Outcome.Delivered
			m.TotalDropped += jr.Outcome.Dropped
		case jr.Err != nil:
			m.Failed++
			rec.Status = "failed"
			rec.Error = jr.Err.Error()
		default:
			m.Cancelled++
			rec.Status = "cancelled"
		}
		m.Jobs = append(m.Jobs, rec)
	}
	sort.SliceStable(m.Jobs, func(a, b int) bool {
		if m.Jobs[a].Curve != m.Jobs[b].Curve {
			return m.Jobs[a].Curve < m.Jobs[b].Curve
		}
		return m.Jobs[a].Point < m.Jobs[b].Point
	})
	m.EventsPerSec = float64(m.TotalEvents) / math.Max(wall.Seconds(), 1e-9)
	return m
}

// WriteJSON serializes the manifest, indented, to w.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
