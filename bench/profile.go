package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
)

// profile wraps a traced pass in runtime/pprof CPU profiling. It is the
// cross-check on the spans: the decorators say what each layer's entry
// points cost, the profile says where the samples fell, and the two must
// tell one story or say that they do not.
type profile struct {
	path string
	f    *os.File
}

func startProfile(path string) (*profile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profile{path: path, f: f}, nil
}

func (p *profile) stop() {
	if p.f == nil {
		return
	}
	pprof.StopCPUProfile()
	p.f.Close()
	p.f = nil
}

// profileLayers are the buckets flat samples are folded into: one per
// simulator package, the Go runtime, and everything else (the facade,
// harness, net/http, encoding/json, the benchmark's own decorators).
var profileLayers = []string{"sim", "network", "core", "routing", "route", "traffic", "stats", "shard", "topology", "rng", "go_runtime", "other"}

// layerOf maps a profiled function name to its bucket.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // type arguments may hold dots and slashes
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "other"
	}
	pkg := fn[:slash+1+dot]
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "go_runtime"
	case strings.HasPrefix(pkg, "hyperx/internal/"):
		name := strings.TrimPrefix(pkg, "hyperx/internal/")
		for _, l := range profileLayers {
			if l == name {
				return l
			}
		}
	}
	return "other"
}

// shares aggregates the written profile's flat samples by layer, as
// fractions of all samples, using `go tool pprof -top`. ok is false when
// there is no go tool to ask.
func (p *profile) shares() (shares map[string]float64, ok bool, err error) {
	if _, err := exec.LookPath("go"); err != nil {
		return nil, false, nil
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodefraction=0", "-nodecount=1000000", p.path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(p.path))
	out, err := cmd.Output()
	if err != nil {
		return nil, true, fmt.Errorf("go tool pprof: %w", err)
	}
	shares = map[string]float64{}
	var total float64
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		flat, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		shares[layerOf(strings.Join(f[5:], " "))] += flat / 100
		total += flat / 100
	}
	if total == 0 {
		return nil, true, fmt.Errorf("go tool pprof printed no samples for %s", p.path)
	}
	return shares, true, nil
}

// reconcileTolerance is how far a layer's span-derived share and its
// profile share may differ, in share points, before the layer is reported
// as unreconciled.
const reconcileTolerance = 0.05

// reconcile emits the profile.*_share metrics and prints them beside the
// span-derived shares of the same pass. spanShare may lack layers the
// decorators cannot see (route's weight selection, rng, the runtime).
func reconcile(rep *report, p *profile, spanShare map[string]float64) {
	for _, l := range profileLayers {
		rep.metrics["profile."+l+"_share"] = 0
	}
	shares, ok, err := p.shares()
	switch {
	case !ok:
		rep.notef("profile skipped: no go tool on PATH")
		return
	case err != nil:
		rep.notef("profile skipped: %v", err)
		return
	}
	verdict := func(span, prof float64) string {
		if math.Abs(span-prof) > reconcileTolerance {
			return "unreconciled"
		}
		return "reconciled"
	}
	rep.notef("%-11s %11s %14s", "layer", "span share", "profile share")
	for _, l := range profileLayers {
		rep.metrics["profile."+l+"_share"] = shares[l]
		if span, seen := spanShare[l]; seen {
			rep.notef("%-11s %10.1f%% %13.1f%%  %s", l, 100*span, 100*shares[l], verdict(span, shares[l]))
		} else {
			rep.notef("%-11s %11s %13.1f%%  no decorator reaches this layer", l, "-", 100*shares[l])
		}
	}
	if _, seen := spanShare["sim"]; seen {
		// The decorators bracket the kernel's run loop as a whole: how it
		// splits between kernel and model is the micro-drive's estimate,
		// and the weight selection, table lookups and RNG draws the model
		// makes are inside it too.
		span, prof := spanShare["sim"]+spanShare["network"], 0.0
		for _, l := range []string{"sim", "network", "route", "topology", "rng"} {
			prof += shares[l]
		}
		rep.notef("%-11s %10.1f%% %13.1f%%  %s  (sim+network spans; sim+network+route+topology+rng samples)", "run loop", 100*span, 100*prof, verdict(span, prof))
	}
}
