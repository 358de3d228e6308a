// Command hxsweep regenerates the Figure 6 data: load-latency curves
// (6a-6f) for one traffic pattern across routing algorithms, or the
// saturated-throughput comparison bars (6g) across all patterns.
//
// Sweeps run on the parallel harness (internal/harness): every (pattern,
// algorithm, load) triple is an independent, independently seeded
// simulation, so the CSV is bit-identical at any -j worker count, and
// -manifest records what each job cost (wall time, simulated cycles,
// events executed, events/sec).
//
// Fault injection: -faults k fails k randomly chosen (seeded by
// -faultseed, connectivity-preserving) router-to-router links in every
// simulation of the sweep, and the manifest records the failed links plus
// per-job delivered/dropped packet counts. -resilience K instead runs the
// graceful-degradation experiment: every algorithm at a fixed -load for
// k = 0..K failed links, one CSV row per cell.
//
// Examples:
//
//	hxsweep -pattern URBy -step 0.05                  # one Figure 6 panel, CSV
//	hxsweep -throughput                               # Figure 6g, CSV
//	hxsweep -pattern DCR -algs DimWAR,OmniWAR -paper  # full 8x8x8 scale
//	hxsweep -pattern UR -j 8 -manifest run.json       # 8 workers + run manifest
//	hxsweep -pattern UR -faults 4 -manifest run.json  # sweep with 4 dead links
//	hxsweep -resilience 6 -load 0.5                   # degradation vs fault count
//	hxsweep -pattern UR -shards 4                     # sharded executor, same CSV bytes
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"hyperx"
	"hyperx/internal/harness"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code as values. The flags parse
// into one hyperx.Experiment — the value the sweep service's request body
// decodes into — so its Normalize is the only validation there is: what
// hxserved answers 400 to, hxsweep exits 2 on, and one run/print path
// serves every kind.
func run(args []string, stdout, stderr io.Writer) int {
	var (
		e  hyperx.Experiment
		po hyperx.SweepOpts
		fk hyperx.ForkOpts
	)
	fs := flag.NewFlagSet("hxsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	pattern := fs.String("pattern", "UR", fmt.Sprintf("traffic pattern %v", hyperx.Patterns))
	algs := fs.String("algs", "DOR,VAL,UGAL,UGAL+,DimWAR,OmniWAR", "algorithms, comma separated")
	fs.Func("step", "load sweep granularity (default 0.05; the paper uses 0.02)", func(s string) (err error) {
		// Zero means "unset" to an Experiment, so an explicit zero is
		// refused here rather than silently read as the default.
		if e.Step, err = strconv.ParseFloat(s, 64); err == nil && e.Step == 0 {
			err = errors.New("step must be positive")
		}
		return err
	})
	fs.IntVar(&e.Opts.Warmup, "warmup", 20000, "warmup cycles")
	fs.IntVar(&e.Opts.Window, "window", 15000, "measurement window cycles")
	throughput := fs.Bool("throughput", false, "emit Figure 6g: saturated throughput for every pattern x algorithm")
	patterns := fs.String("patterns", "UR,BC,URBx,URBy,URBz,S2,DCR", "patterns for -throughput")
	paper := fs.Bool("paper", false, "use the paper's 8x8x8 t=8 scale")
	fs.Uint64Var(&e.Config.Seed, "seed", 1, "random seed")
	fs.IntVar(&e.Config.Faults, "faults", 0, "inject this many failed router-router links (0 = pristine)")
	fs.Uint64Var(&e.Config.FaultSeed, "faultseed", 0, "seed for fault selection (0 = use -seed)")
	fs.IntVar(&e.MaxFaults, "resilience", 0, "run the resilience experiment for 0..K failed links at -load")
	fs.Float64Var(&e.Load, "load", 0, "fixed offered load for -resilience (default 0.5)")
	fs.IntVar(&po.Workers, "j", 0, "parallel workers (0 = GOMAXPROCS); results are identical at any -j")
	fs.IntVar(&e.Opts.Shards, "shards", 0, "cores per simulation via the deterministic sharded executor (0/1 = serial); results are bit-identical at any -shards")
	manifest := fs.String("manifest", "", "write a JSON run manifest (per-job wall time, cycles, events/sec) to this file")
	quiet := fs.Bool("q", false, "suppress the per-job progress lines on stderr")
	fs.IntVar(&fk.WarmCycles, "forkwarm", 0, "fork each curve's load points from one snapshot warmed this many cycles at -forkload (amortizes warmup across points — deterministic but NOT byte-comparable to cold CSVs, see EXPERIMENTS.md)")
	fs.Float64Var(&fk.WarmLoad, "forkload", 0, "offered load during the -forkwarm shared warmup (0 = 0.5)")
	fs.IntVar(&fk.Settle, "forksettle", 0, "post-fork settle cycles per point for -forkwarm (0 = warmup/4)")
	ckptDir := fs.String("checkpoint-dir", "", "persist completed results here and resume from them on rerun (kill+rerun with identical flags yields a byte-identical CSV)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	scale := hyperx.DefaultScale()
	if *paper {
		scale = hyperx.PaperScale()
	}
	e.Config.Widths, e.Config.Terms = scale.Widths, scale.Terms
	e.Algorithms = split(*algs)
	e.Patterns = split(*pattern)
	if e.MaxFaults != 0 {
		e.Kind = "resilience"
	}
	if *throughput {
		e.Kind, e.Patterns = "throughput", split(*patterns)
	}
	// A fork flag given is a fork requested: Normalize drops a zero one
	// and rejects one it does not apply to.
	fs.Visit(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "fork") {
			e.Fork = &fk
		}
	})
	if err := e.Normalize(); err != nil {
		fmt.Fprintln(stderr, "hxsweep:", err)
		return 2
	}
	if *ckptDir != "" {
		store, err := hyperx.OpenCheckpointDir(*ckptDir)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		po.Store = store
	}
	if !*quiet {
		po.OnEvent = func(ev harness.Event) { fmt.Fprintln(stderr, progressLine(ev)) }
	}

	res, mani, err := e.Run(context.Background(), po)
	writeManifest(stderr, *manifest, mani)
	if err == nil {
		err = e.WriteCSV(stdout, res)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if !*quiet {
		for _, c := range res.Curves {
			fmt.Fprintf(stderr, "done %s/%s: %d points\n", c.Pattern, c.Algorithm, len(c.Points))
		}
	}
	return 0
}

// progressLine renders one job's progress event as its stderr status
// line: the run-wide counters, the job's fate and label, and for a job
// that ran, its cost.
func progressLine(ev harness.Event) string {
	line := fmt.Sprintf("[%d/%d done, %d cancelled, %d failed] %-9s %s",
		ev.Done, ev.Total, ev.Cancelled, ev.Failed, ev.Status, ev.Label)
	if ev.Status == "ok" || ev.Status == "saturated" {
		evs := float64(ev.Events) / max(ev.WallSecs, 1e-9)
		line += fmt.Sprintf("  %.2fs wall, %d cycles, %.2f Mev/s", ev.WallSecs, ev.SimCycles, evs/1e6)
	}
	return line
}

// writeManifest persists the run manifest when -manifest was given; a
// manifest is written even for failed runs so aborted sweeps still leave
// an observability record.
func writeManifest(stderr io.Writer, path string, m *hyperx.Manifest) {
	if path == "" || m == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(stderr, "manifest:", err)
		return
	}
	defer f.Close()
	if err := m.WriteJSON(f); err != nil {
		fmt.Fprintln(stderr, "manifest:", err)
	}
}

func split(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}
