package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// runCfg is one invocation's parameters: which workload, on which seed,
// for how long, at which size.
type runCfg struct {
	workload string
	seed     uint64
	seconds  float64 // timed passes stop before exceeding this; 0 means exactly one pass
	size     string
	sz       sizing
	traced   bool
	repin    bool   // -update-digests: write this run's digests, compare against none
	outDir   string // span files, profiles, digests of this run, scratch stores
}

// report is what one workload run measured and checked.
type report struct {
	metrics   map[string]float64
	attempted int      // cells simulated and requests served, over all timed passes
	failures  []string // every correctness miss, human-readable; empty means correct
	artefacts map[string][]byte
	notes     []string // informational lines for the human summary
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, artefacts: map[string][]byte{}}
}

func (r *report) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

//go:embed testdata/digests.txt
var pinnedDigests string

// digestSeed is the seed whose CSVs testdata/digests.txt pins.
const digestSeed = 1

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// pinned parses testdata/digests.txt: "<workload>/<artefact> <sha256>".
func pinned() map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(pinnedDigests, "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			out[f[0]] = f[1]
		}
	}
	return out
}

// checkDigests holds the run's CSVs against the pinned goldens (full size,
// seed 1 only — any other seed is checked by the cross-checks alone) and
// leaves this run's digests in outDir for -update-digests to collect.
func (r *report) checkDigests(rc runCfg) error {
	names := make([]string, 0, len(r.artefacts))
	for name := range r.artefacts {
		names = append(names, name)
	}
	sort.Strings(names)
	var lines bytes.Buffer
	want := pinned()
	for _, name := range names {
		key := rc.workload + "/" + name
		got := digest(r.artefacts[name])
		fmt.Fprintf(&lines, "%s %s\n", key, got)
		if rc.repin || rc.size != "full" || rc.seed != digestSeed {
			continue
		}
		switch w, ok := want[key]; {
		case !ok:
			r.failf("%s has no pinned digest (run with -update-digests)", key)
		case w != got:
			r.failf("%s digest %s differs from pinned %s", key, got[:12], w[:12])
		}
	}
	return os.WriteFile(filepath.Join(rc.outDir, "digests-"+rc.workload+".txt"), lines.Bytes(), 0o644)
}

// timedPasses repeats pass until the next one would overrun the budget,
// always running at least one, and returns each pass's wall in seconds and
// its own peak RSS in MiB.
//
// Every pass does identical work, and callers report the fastest. On a
// shared host interference only ever adds time, and it comes in spells
// longer than a pass, so no statistic over one run's passes removes it;
// but the fastest pass is the one closest to the code's own cost. Over
// 50-60 consecutive passes per workload, grouped in fours, the group
// minimum spread 7% on paper_point_sharded where the group median spread
// 14-21%, and the two were level on the other three workloads.
func timedPasses(seconds float64, pass func() (time.Duration, error)) (walls, peaks []float64, err error) {
	begin := time.Now()
	for {
		resetPeakRSS() // every pass starts from the same collected, scavenged heap
		wall, err := pass()
		if err != nil {
			return walls, peaks, err
		}
		walls = append(walls, secs(wall))
		peaks = append(peaks, peakRSSMiB())
		if secs(time.Since(begin))+median(walls) > seconds {
			return walls, peaks, nil
		}
	}
}

// repeatSetup runs a workload's set-up n times, each from a freshly
// collected heap so that every repetition meets the collector in the same
// state, and returns the durations in seconds.
func repeatSetup(n int, setup func() (time.Duration, error)) ([]float64, error) {
	var setups []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		d, err := setup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs(d))
	}
	return setups, nil
}

// endToEnd fills in the four end-to-end metrics from a run's repetitions:
// the fastest pass, the events it executed per second, the median per-pass
// peak RSS and the median set-up.
func (r *report) endToEnd(walls, peaks, setups []float64, events uint64, what string) {
	r.metrics["setup_s"] = median(setups)
	r.metrics["wall_s"] = slices.Min(walls)
	r.metrics["events_per_s"] = float64(events) / slices.Min(walls)
	r.metrics["peak_rss_mb"] = median(peaks)
	r.notef("%s; %s and %d kernel events per pass", passNote(walls, peaks, setups), what, events)
}

// passNote describes a run's repetitions for the human summary.
func passNote(walls, peaks, setups []float64) string {
	return fmt.Sprintf("%d timed passes: wall_s fastest %.3f, median %.3f, slowest %.3f; per-pass peak RSS %.1f / %.1f / %.1f MiB; %d set-ups: %.5f / %.5f / %.5f s",
		len(walls), slices.Min(walls), median(walls), slices.Max(walls),
		slices.Min(peaks), median(peaks), slices.Max(peaks),
		len(setups), slices.Min(setups), median(setups), slices.Max(setups))
}

// runSimWorkload is the untraced run of a simulation workload: set-up
// (repeated, median reported), one untimed warm-up, then timed passes of
// the facade sweep (fastest reported); every pass must emit the same bytes.
func runSimWorkload(ctx context.Context, rc runCfg) (*report, error) {
	rep := newReport()
	c := simCase(rc.workload, rc.sz, rc.seed)

	setups, err := repeatSetup(rc.sz.setupReps, c.setup)
	if err != nil {
		return nil, err
	}

	// Warm-up: the first pass in a fresh heap runs slower than the ones
	// after it. The sharded workload warms up on the serial execution of
	// its own point, which is also the reference its CSV must equal.
	warm := c
	var serialCSV []byte
	if rc.workload == "paper_point_sharded" {
		warm.opts.Shards = 0
		out, err := warm.run(ctx)
		if err != nil {
			return nil, err
		}
		serialCSV = out.csv
	} else {
		warm.opts = window(c.opts.Window / 5)
		if _, err := warm.run(ctx); err != nil {
			return nil, err
		}
	}

	var first *sweepOut
	pass := 0
	walls, peaks, err := timedPasses(rc.seconds, func() (time.Duration, error) {
		out, err := c.run(ctx)
		if err != nil {
			return 0, err
		}
		pass++
		if first == nil {
			first = out
		} else if !bytes.Equal(out.csv, first.csv) || out.events != first.events {
			rep.failf("pass %d produced a different CSV or event count than pass 1", pass)
		}
		return out.wall, nil
	})
	if err != nil {
		return nil, err
	}
	rep.attempted = len(walls) * len(first.cells)
	rep.artefacts["sweep.csv"] = first.csv
	if serialCSV != nil && !bytes.Equal(serialCSV, first.csv) {
		rep.failf("sharded CSV differs from the serial CSV of the same point")
	}

	rep.endToEnd(walls, peaks, setups, first.events, fmt.Sprintf("%d cells", len(first.cells)))
	return rep, nil
}
