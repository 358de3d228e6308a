package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// set is one full run of the benchmark: every workload untraced (the
// end-to-end metrics) and traced (the exact counts), plus the CSV digests
// the children left in outDir.
type set struct {
	e2e, layer map[string]map[string]float64 // workload -> metric -> value
	digests    string
	code       int
}

func runSet(rc runCfg, reverse bool) set {
	s := set{e2e: map[string]map[string]float64{}, layer: map[string]map[string]float64{}}
	for _, traced := range []bool{false, true} {
		rc.traced = traced
		children, code := runAll(rc, workloadNames(reverse))
		s.code = max(s.code, code)
		for _, cr := range children {
			vals := map[string]float64{}
			for name, mv := range cr.res.Metrics {
				vals[name] = mv.Value
			}
			if traced {
				s.layer[cr.workload] = vals
			} else {
				s.e2e[cr.workload] = vals
			}
		}
	}
	var all bytes.Buffer
	for _, w := range workloads {
		b, _ := os.ReadFile(filepath.Join(rc.outDir, "digests-"+w.Name+".txt"))
		all.Write(b)
	}
	s.digests = all.String()
	return s
}

// selfcheck runs two sets back to back, the second in reverse workload
// order, and requires of the same code what the benchmark will require of
// a change: exact counts and digests identical, every end-to-end metric
// within its bound.
func selfcheck(rc runCfg) int {
	printHost()
	fmt.Println("selfcheck: set 1")
	a := runSet(rc, false)
	fmt.Println("selfcheck: set 2 (reverse order)")
	b := runSet(rc, true)

	bad := max(a.code, b.code)
	fmt.Printf("\n%-20s %-28s %14s %14s %8s %7s\n", "workload", "metric", "set 1", "set 2", "gap", "bound")
	for _, w := range workloads {
		for _, m := range endToEnd {
			x, y := a.e2e[w.Name][m.Name], b.e2e[w.Name][m.Name]
			gap := math.Abs(y-x) / math.Max(math.Min(x, y), 1e-12)
			verdict := ""
			if gap > m.Bound {
				verdict = "  OUTSIDE BOUND"
				bad = max(bad, 1)
			}
			fmt.Printf("%-20s %-28s %14.6g %14.6g %7.2f%% %6.0f%%%s\n", w.Name, m.Name, x, y, 100*gap, 100*m.Bound, verdict)
		}
		for _, m := range perLayer {
			if !m.Exact {
				continue
			}
			x, y := a.layer[w.Name][m.Name], b.layer[w.Name][m.Name]
			verdict := "identical"
			if x != y {
				verdict = "DIFFERS"
				bad = max(bad, 1)
			}
			fmt.Printf("%-20s %-28s %14.0f %14.0f %8s %7s  %s\n", w.Name, m.Name, x, y, "", "exact", verdict)
		}
	}
	if a.digests != b.digests || a.digests == "" {
		fmt.Println("CSV digests DIFFER between the sets")
		bad = max(bad, 1)
	} else {
		fmt.Printf("CSV digests identical (%d artefacts)\n", strings.Count(a.digests, "\n"))
	}
	if bad != 0 {
		fmt.Println("selfcheck: FAILED")
	} else {
		fmt.Println("selfcheck: ok")
	}
	return bad
}

// updateDigests re-pins testdata/digests.txt from one pass of every
// workload on the digest seed. The children still run every cross-check;
// only the comparison against the old pins is off.
func updateDigests(rc runCfg) int {
	rc.seed, rc.seconds, rc.traced, rc.size, rc.sz, rc.repin = digestSeed, 0, false, "full", sizings["full"], true
	if _, code := runAll(rc, workloadNames(false)); code != 0 {
		fmt.Println("update-digests: a workload failed; digests not rewritten")
		return code
	}
	out := "# sha256 of each workload's CSVs at -size full -seed 1. Regenerate with\n# `bash bench/run.sh -update-digests`; a change here is a change of simulated results.\n"
	for _, w := range workloads {
		b, err := os.ReadFile(filepath.Join(rc.outDir, "digests-"+w.Name+".txt"))
		if err != nil {
			fmt.Println("update-digests:", err)
			return 2
		}
		out += string(b)
	}
	path := filepath.Join("bench", "testdata", "digests.txt")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		fmt.Println("update-digests:", err)
		return 2
	}
	fmt.Println("update-digests: wrote", path)
	return 0
}
