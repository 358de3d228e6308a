// Command bench is the repository's performance ledger: four named
// workloads driven through the public facade, every end-to-end metric by
// name with its unit, and — with -trace 1 — the per-layer metrics taken by
// benchmark-owned decorators around each layer's public entry points.
//
//	bash bench/run.sh                                   # all workloads, tracing off
//	bash bench/run.sh -trace 1                          # all workloads, per-layer metrics
//	bash bench/run.sh -workload served_mix -seed 7 -seconds 20 -trace 0
//	bash bench/run.sh -selfcheck                        # two sets, compared
//	bash bench/run.sh -update-digests                   # re-pin testdata/digests.txt
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}; that is the form the
// benchmark driver runs. Simulated statistics are checked for exact
// equality against pinned CSV digests; only host time is subject to noise.
// The model is pinned to its own goldens and is NOT validated against
// hardware: no accuracy figure is given or implied. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and end with the JSON result line (default: all four, each in a child process)")
		seed     = flag.Uint64("seed", 1, "workload seed; flows to Config.Seed and nowhere else")
		seconds  = flag.Float64("seconds", 25, "timed passes stop before exceeding this many seconds; 0 runs exactly one pass")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
		size     = flag.String("size", "full", "full (what BENCHMARK.json measures) or tiny (seconds; for tests)")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for span files, profiles and scratch stores")
		self     = flag.Bool("selfcheck", false, "run two full sets back to back, the second in reverse order, and compare them against the bounds")
		update   = flag.Bool("update-digests", false, "run every workload on seed 1 and rewrite bench/testdata/digests.txt")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace takes 0 or 1")
	}
	sz, ok := sizings[*size]
	if !ok {
		fatalf("unknown -size %q (full, tiny)", *size)
	}
	// Never more than two compute threads, whatever the host offers: the
	// numbers must mean the same on the next machine.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	rc := runCfg{workload: *workload, seed: *seed, seconds: *seconds, size: *size, sz: sz, traced: *trace == 1, repin: *update, outDir: *outDir}

	switch {
	case *self:
		os.Exit(selfcheck(rc))
	case *update && *workload == "":
		os.Exit(updateDigests(rc))
	case *workload == "":
		printHost()
		_, code := runAll(rc, workloadNames(false))
		os.Exit(code)
	}
	if !workloadNamed(*workload) {
		fatalf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(false), ", "))
	}
	printHost()
	rep, err := runWorkload(context.Background(), rc)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	os.Exit(emit(rc, rep))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames(reverse bool) []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if reverse {
			names[len(workloads)-1-i] = w.Name
		} else {
			names[i] = w.Name
		}
	}
	return names
}

// runWorkload dispatches one workload run in this process.
func runWorkload(ctx context.Context, rc runCfg) (*report, error) {
	var rep *report
	var err error
	switch {
	case rc.workload == "served_mix":
		rep, err = runServedWorkload(ctx, rc)
	case rc.traced:
		rep, err = runSimTraced(ctx, rc)
	default:
		rep, err = runSimWorkload(ctx, rc)
	}
	if err != nil {
		return nil, err
	}
	if err := rep.checkDigests(rc); err != nil {
		return nil, err
	}
	return rep, nil
}

// finish turns a report into the contract's result: exactly the metric
// set of the run's mode, each with its unit, and the pass/fail counts. A
// digest or cross-check miss fails the whole workload.
func finish(rc runCfg, rep *report) result {
	specs := specsFor(rc.traced)
	for _, m := range specs {
		if v := rep.metrics[m.Name]; math.IsNaN(v) || math.IsInf(v, 0) {
			rep.failf("metric %s is not a finite number", m.Name)
			rep.metrics[m.Name] = 0
		}
	}
	res := result{Correct: len(rep.failures) == 0, Attempted: max(rep.attempted, 1), Metrics: map[string]metricValue{}}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	if rc.traced {
		rep.metrics["failed_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	}
	for _, m := range specs {
		res.Metrics[m.Name] = metricValue{Value: rep.metrics[m.Name], Unit: m.Unit}
	}
	return res
}

// emit prints the human summary and then the contract's JSON line, and
// returns the exit code: non-zero on any correctness miss.
func emit(rc runCfg, rep *report) int {
	res := finish(rc, rep)
	fmt.Printf("workload %s  seed %d  size %s  trace %v\n", rc.workload, rc.seed, rc.size, rc.traced)
	for _, m := range specsFor(rc.traced) {
		fmt.Printf("  %-34s %16s %s\n", m.Name, strconv.FormatFloat(res.Metrics[m.Name].Value, 'g', 6, 64), m.Unit)
	}
	for _, n := range rep.notes {
		fmt.Println("  note:", n)
	}
	for _, f := range rep.failures {
		fmt.Println("  FAIL:", f)
	}
	fmt.Println("  simulated statistics are pinned to this repository's own goldens; the model is not validated against hardware")
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printHost records what the numbers were measured on. A busy host makes
// every time below a measurement of the scheduler, so say so.
func printHost() {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	load := "unknown"
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		load = strings.TrimSpace(string(b))
	}
	fmt.Printf("host: commit %s  %s  nproc %d  GOMAXPROCS %d  loadavg %s\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), load)
	if f := strings.Fields(load); len(f) > 0 {
		if l, err := strconv.ParseFloat(f[0], 64); err == nil && l > 0.5 {
			fmt.Printf("host: WARNING 1-min load %.2f > 0.5 — times below partly measure the scheduler\n", l)
		}
	}
}

// childResult is one workload's outcome as seen by the parent of a set.
type childResult struct {
	workload string
	res      result
	code     int
}

// runAll runs each named workload in a re-exec'd child of its own (so
// peak_rss_mb is that workload's alone), relays the children's summaries,
// and returns their parsed results with the worst exit code.
func runAll(rc runCfg, names []string) ([]childResult, int) {
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	var out []childResult
	worst := 0
	for _, name := range names {
		trace := "0"
		if rc.traced {
			trace = "1"
		}
		cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(rc.seed, 10),
			"-seconds", strconv.FormatFloat(rc.seconds, 'g', -1, 64), "-trace", trace, "-size", rc.size, "-out", rc.outDir)
		if rc.repin {
			cmd.Args = append(cmd.Args, "-update-digests")
		}
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		cr := childResult{workload: name, code: cmd.ProcessState.ExitCode()}
		lines := strings.Split(strings.TrimRight(string(stdout), "\n"), "\n")
		last := lines[len(lines)-1]
		if jerr := json.Unmarshal([]byte(last), &cr.res); jerr != nil {
			fmt.Printf("%s\nworkload %s printed no result (%v)\n", stdout, name, err)
			cr.code = max(cr.code, 2)
		} else {
			// Skip the child's host line; the parent printed its own.
			for _, l := range lines[:len(lines)-1] {
				if !strings.HasPrefix(l, "host:") {
					fmt.Println(l)
				}
			}
		}
		worst = max(worst, cr.code)
		out = append(out, cr)
	}
	if !rc.traced {
		printShardRatio(out)
	}
	return out, worst
}

// printShardRatio shows the measured shard speedup. It is information,
// not a gated metric: it compounds the noise of two runs.
func printShardRatio(set []childResult) {
	var serial, sharded float64
	for _, cr := range set {
		switch cr.workload {
		case "paper_point_serial":
			serial = cr.res.Metrics["wall_s"].Value
		case "paper_point_sharded":
			sharded = cr.res.Metrics["wall_s"].Value
		}
	}
	if serial > 0 && sharded > 0 {
		fmt.Printf("info: paper_point_serial.wall_s / paper_point_sharded.wall_s = %.3f / %.3f = %.3f (2 shards; not gated)\n",
			serial, sharded, serial/sharded)
	}
}
