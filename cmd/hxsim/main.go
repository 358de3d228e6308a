// Command hxsim runs a single steady-state simulation point of a HyperX
// network and reports latency and throughput, or prints the Table 1
// implementation comparison.
//
// Examples:
//
//	hxsim -alg DimWAR -pattern URBy -load 0.4
//	hxsim -widths 8,8,8 -terms 8 -alg OmniWAR -pattern DCR -load 0.3 -warmup 60000 -window 30000
//	hxsim -table1
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hyperx"
)

func main() {
	var (
		widths  = flag.String("widths", "4,4,4", "HyperX widths per dimension, comma separated")
		terms   = flag.Int("terms", 4, "terminals per router")
		alg     = flag.String("alg", "DimWAR", fmt.Sprintf("routing algorithm %v", hyperx.Algorithms))
		pattern = flag.String("pattern", "UR", fmt.Sprintf("traffic pattern %v", hyperx.Patterns))
		load    = flag.Float64("load", 0.5, "offered load, flits/cycle/terminal")
		warmup  = flag.Int("warmup", 20000, "warmup cycles")
		window  = flag.Int("window", 15000, "measurement window cycles")
		vcs     = flag.Int("vcs", 8, "virtual channels per port (at most 16)")
		seed    = flag.Uint64("seed", 1, "random seed")
		table1  = flag.Bool("table1", false, "print the Table 1 implementation comparison and exit")
		paper   = flag.Bool("paper", false, "use the paper's 8x8x8 t=8 scale (overrides -widths/-terms)")
	)
	flag.Parse()

	if *table1 {
		fmt.Print(hyperx.TableOne())
		return
	}

	cfg := hyperx.Config{Terms: *terms, Algorithm: *alg, NumVCs: *vcs, Seed: *seed}
	for _, s := range strings.Split(*widths, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad width %q: %v\n", s, err)
			os.Exit(1)
		}
		cfg.Widths = append(cfg.Widths, w)
	}
	if *paper {
		cfg.Widths = []int{8, 8, 8}
		cfg.Terms = 8
	}

	pt, err := hyperx.RunLoadPoint(cfg, *pattern, *load, hyperx.RunOpts{Warmup: *warmup, Window: *window})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("topology   hyperx %v t=%d (%d terminals)\n", cfg.Widths, cfg.Terms, product(cfg.Widths)*cfg.Terms)
	fmt.Printf("algorithm  %s\n", *alg)
	fmt.Printf("pattern    %s\n", *pattern)
	fmt.Printf("offered    %.3f flits/cycle/terminal\n", *load)
	fmt.Printf("accepted   %.3f\n", pt.Accepted)
	fmt.Printf("latency    mean %.1f ns   p50 %.1f   p99 %.1f   (%d samples)\n", pt.Mean, pt.P50, pt.P99, pt.Samples)
	fmt.Printf("saturated  %v\n", pt.Saturated)
}

func product(v []int) int {
	p := 1
	for _, x := range v {
		p *= x
	}
	return p
}
