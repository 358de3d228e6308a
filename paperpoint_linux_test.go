package hyperx

import (
	"context"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// BenchmarkPaperPoint runs the paper's Section 6 point serially — the
// 8×8×8 t=8 network, DimWAR, UR at load 0.6, warmup and window of 500
// cycles, the benchmark's paper_point_serial cell — and reports the
// kernel events and the CPU time of the simulating thread per run, and
// the process's peak resident set (getrusage's maxrss) once it is done.
// scripts/cpupairs.sh compares two commits with it, one process per run:
// pairs taken inside one process share its heap, so they cannot measure
// a change to how memory is backed, and the peak is the process's. The
// file is Linux-only for the per-thread CPU clock.
func BenchmarkPaperPoint(b *testing.B) {
	cfg := PaperScale()
	cfg.Algorithm = "DimWAR"
	cfg.Seed = 1
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var events uint64
	var cpu time.Duration
	for i := 0; i < b.N; i++ {
		start := threadCPU(b)
		_, st, err := runLoadPointCtx(context.Background(), cfg, "UR", 0.6, RunOpts{Warmup: 500, Window: 500})
		if err != nil {
			b.Fatal(err)
		}
		cpu += threadCPU(b) - start
		events += st.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(cpu.Seconds()/float64(b.N), "cpu_s/op")
	b.ReportMetric(peakRSS(b), "peak_rss_mb")
}

// peakRSS returns the process's peak resident set in MiB.
func peakRSS(b *testing.B) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// threadCPU returns the CPU time the calling OS thread has used.
func threadCPU(b *testing.B) time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
