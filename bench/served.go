package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hyperx"
	"hyperx/internal/serve"
)

// servedCase is the request mix of served_mix: three experiments and how
// often the finished one is asked for again.
type servedCase struct {
	a, b, c         *serve.Request
	restarts, warms int
}

// servedRequests generates the mix from the seed. A is a cold Fig-6 panel;
// B overlaps it (DimWAR and OmniWAR cells are A's, VAL and MinAD are new);
// C is A's grid on the next seed through the pristine fork.
func servedRequests(sz sizing, seed uint64) servedCase {
	mk := func(seed uint64, algs []string, fork *hyperx.ForkOpts) *serve.Request {
		cfg := sz.small
		cfg.Seed = seed
		return &serve.Request{Kind: "sweep", Config: cfg, Patterns: []string{"UR"}, Algorithms: algs,
			Loads: hyperx.LoadRange(sz.servedStep), Opts: window(sz.servedWindow), Fork: fork}
	}
	return servedCase{
		a:        mk(seed, fig6Algs, nil),
		b:        mk(seed, []string{"DimWAR", "OmniWAR", "VAL", "MinAD"}, nil),
		c:        mk(seed+1, fig6Algs, &hyperx.ForkOpts{}),
		restarts: sz.restarts,
		warms:    sz.warms,
	}
}

// facadeCSV computes a request's experiment directly through the facade,
// with no store and no service: the bytes the served CSV must equal.
func facadeCSV(ctx context.Context, req *serve.Request) ([]byte, error) {
	curves, _, err := hyperx.RunLoadSweepParallel(ctx, req.Config, req.Patterns, req.Algorithms, req.Loads, req.Opts,
		hyperx.SweepOpts{Workers: 2, Fork: req.Fork})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = hyperx.WriteSweepCSV(&buf, curves)
	return buf.Bytes(), err
}

// clientStats is what the client side of a pass saw, over every
// connection it used (each restarted server gets a fresh one).
type clientStats struct {
	submitMS, csvMS []float64
	refused         int
	requests        int
}

// client is the single closed-loop client: one connection, the next
// request sent only when the previous one's CSV has arrived.
type client struct {
	http *http.Client
	tr   *tracer // nil with tracing off
	*clientStats
}

func newClient(tr *tracer, st *clientStats) *client {
	return &client{tr: tr, clientStats: st, http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) get(url string) ([]byte, error) {
	resp, err := c.http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func (c *client) getJSON(url string, into any) error {
	body, err := c.get(url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, into)
}

// request is one user-visible request: submit the experiment, follow its
// event stream to the terminal state, fetch result.csv. It returns the
// job ID, the CSV and the time from first byte sent to last byte received.
func (c *client) request(base, name string, body []byte) (id string, csv []byte, took time.Duration, err error) {
	c.requests++
	start := time.Now()
	root := c.tr.begin("request:"+name, 0)
	defer func() { c.tr.end(root) }()

	sp := c.tr.begin("serve.submit", root)
	resp, err := c.http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", nil, 0, err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.tr.end(sp)
	if err != nil {
		return "", nil, 0, err
	}
	c.submitMS = append(c.submitMS, ms(time.Since(start)))
	if resp.StatusCode == http.StatusServiceUnavailable {
		c.refused++
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return "", nil, 0, fmt.Errorf("submit %s: status %d: %s", name, resp.StatusCode, bytes.TrimSpace(reply))
	}
	var st serve.JobStatus
	if err := json.Unmarshal(reply, &st); err != nil {
		return "", nil, 0, fmt.Errorf("submit %s: %w", name, err)
	}

	sp = c.tr.begin("serve.events", root)
	state, err := c.follow(base + "/v1/jobs/" + st.ID + "/events")
	c.tr.end(sp)
	if err != nil {
		return "", nil, 0, err
	}
	if state != "done" {
		return "", nil, 0, fmt.Errorf("job %s (%s) ended %q", st.ID, name, state)
	}

	sp = c.tr.begin("serve.result_csv", root)
	t0 := time.Now()
	csv, err = c.get(base + "/v1/jobs/" + st.ID + "/result.csv")
	c.tr.end(sp)
	if err != nil {
		return "", nil, 0, err
	}
	c.csvMS = append(c.csvMS, ms(time.Since(t0)))
	return st.ID, csv, time.Since(start), nil
}

// follow reads a job's NDJSON event stream to its end and returns the
// last state line. The server closes the stream at the terminal state.
func (c *client) follow(url string) (string, error) {
	resp, err := c.http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	last := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var line struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return "", fmt.Errorf("bad event line %q: %w", sc.Text(), err)
		}
		if line.State != "" {
			last = line.State
		}
	}
	return last, sc.Err()
}

// service is one in-process hxserved behind a loopback listener.
type service struct {
	srv *serve.Server
	ts  *httptest.Server
}

func startService(opts serve.Options) (*service, error) {
	srv, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	return &service{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

func (s *service) stop() error {
	s.ts.Close()
	return s.srv.Shutdown(context.Background())
}

// liveService is served_mix's set-up, done: a scratch store, a server on
// it behind a listener, and the client with its one connection open.
type liveService struct {
	dir   string
	store *hyperx.CheckpointStore
	svc   *service
	cl    *client
	took  time.Duration
}

// servedSetup is the set-up of served_mix: scratch store, serve.New,
// listener, and the client's first round trip, which opens its connection.
func servedSetup(rc runCfg, tr *tracer, st *clientStats) (live *liveService, err error) {
	t0 := time.Now()
	sp := tr.begin("setup", 0)
	dir, err := os.MkdirTemp(rc.outDir, "store-")
	if err != nil {
		return nil, err
	}
	live = &liveService{dir: dir, cl: newClient(tr, st)}
	defer func() {
		if err != nil {
			live.stop() // the set-up's own error is the one to report
		}
	}()
	if live.store, err = hyperx.OpenCheckpointDir(dir); err != nil {
		return nil, err
	}
	if live.svc, err = startService(serve.Options{Store: live.store, Workers: 2, Executors: 1}); err != nil {
		return nil, err
	}
	if _, err = live.cl.get(live.svc.ts.URL + "/v1/cache/stats"); err != nil {
		return nil, err
	}
	tr.end(sp)
	live.took = time.Since(t0)
	return live, nil
}

// stop tears the service down and deletes its scratch store.
func (l *liveService) stop() error {
	l.cl.close()
	var err error
	if l.svc != nil {
		err = l.svc.stop()
	}
	if rerr := os.RemoveAll(l.dir); err == nil {
		err = rerr
	}
	return err
}

// servedOut is what one pass of the mix measured.
type servedOut struct {
	wall                time.Duration
	cold, overlap, fork time.Duration
	restartMS, warmMS   []float64
	csvA, csvB, csvC    []byte
	results             []serve.ResultJSON // A, B, C
	cache               serve.CacheStatsBody
	restartCached       uint64 // store hits summed over the restarted servers
	store               hyperx.CacheStats
	computed            // the cells this pass simulated
	clientStats
}

// requestBody renders a request as the JSON a client would POST.
func requestBody(req *serve.Request) []byte {
	b, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("bench: request does not marshal: %v", err)) // plain data; only a bug gets here
	}
	return b
}

// servedPass runs the whole mix once against a fresh store.
func servedPass(rc runCfg, sc servedCase, tr *tracer) (out *servedOut, err error) {
	out = &servedOut{}
	bodyA, bodyB, bodyC := requestBody(sc.a), requestBody(sc.b), requestBody(sc.c)

	live, err := servedSetup(rc, tr, &out.clientStats)
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := live.stop(); err == nil {
			err = serr
		}
	}()
	svc, cl, store, dir := live.svc, live.cl, live.store, live.dir

	start := time.Now()
	var idA, idB, idC string
	if idA, out.csvA, out.cold, err = cl.request(svc.ts.URL, "cold", bodyA); err != nil {
		return nil, err
	}
	if idB, out.csvB, out.overlap, err = cl.request(svc.ts.URL, "overlap", bodyB); err != nil {
		return nil, err
	}
	if idC, out.csvC, out.fork, err = cl.request(svc.ts.URL, "fork", bodyC); err != nil {
		return nil, err
	}

	// Restart: a fresh server over the populated store replays A cell by
	// cell out of the cache. Its construction and listener are part of the
	// pass but not of the request latency.
	for i := 0; i < sc.restarts; i++ {
		sp := tr.begin("restart.server", 0)
		again, err := startService(serve.Options{CheckpointDir: dir, Workers: 2, Executors: 1})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		rcl := newClient(tr, &out.clientStats)
		_, csv, took, err := rcl.request(again.ts.URL, "restart", bodyA)
		var cs serve.CacheStatsBody
		if err == nil {
			err = rcl.getJSON(again.ts.URL+"/v1/cache/stats", &cs)
		}
		rcl.close()
		if serr := again.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(csv, out.csvA) {
			return nil, fmt.Errorf("restart %d served a different CSV than the cold request", i)
		}
		if cs.Store != nil {
			out.restartCached += cs.Store.Hits
		}
		out.restartMS = append(out.restartMS, ms(took))
	}

	// Warm: the live server already holds the finished job.
	for i := 0; i < sc.warms; i++ {
		_, csv, took, err := cl.request(svc.ts.URL, "warm", bodyA)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(csv, out.csvA) {
			return nil, fmt.Errorf("warm request %d served a different CSV than the cold request", i)
		}
		out.warmMS = append(out.warmMS, ms(took))
	}
	out.wall = time.Since(start)

	// Observability reads, outside the timed region.
	out.results = make([]serve.ResultJSON, 3)
	for i, id := range []string{idA, idB, idC} {
		if err := cl.getJSON(svc.ts.URL+"/v1/jobs/"+id+"/result.json", &out.results[i]); err != nil {
			return nil, err
		}
		out.computed.add(&out.results[i])
	}
	if err := cl.getJSON(svc.ts.URL+"/v1/cache/stats", &out.cache); err != nil {
		return nil, err
	}
	if out.store, err = store.Stats(); err != nil {
		return nil, err
	}
	return out, nil
}

// computed sums what the jobs a served experiment actually simulated
// cost: those in the CSV (see inCSV) that were not served from the store or
// a shared flight.
type computed struct {
	cells             int
	events, delivered uint64
	cycles            int64
}

func (c *computed) add(res *serve.ResultJSON) {
	if res.Manifest == nil {
		return
	}
	for _, jr := range res.Manifest.Jobs {
		if jr.Status == "done" && !jr.Cached && inCSV(jr, res.Curves) {
			c.cells++
			c.events += jr.Events
			c.delivered += jr.Delivered
			c.cycles += jr.SimCycles
		}
	}
}

// runServedWorkload is served_mix, traced or not. Tracing here means spans
// around the client's calls plus the service's own counters; the service
// builds its simulations privately, so no decorator reaches inside a cell.
func runServedWorkload(ctx context.Context, rc runCfg) (*report, error) {
	rep := newReport()
	sc := servedRequests(rc.sz, rc.seed)

	// Warm-up and reference in one: the three experiments straight through
	// the facade. The served CSVs must equal these bytes.
	var want [3][]byte
	for i, req := range []*serve.Request{sc.a, sc.b, sc.c} {
		csv, err := facadeCSV(ctx, req)
		if err != nil {
			return nil, err
		}
		want[i] = csv
	}
	check := func(out *servedOut) {
		for i, got := range [][]byte{out.csvA, out.csvB, out.csvC} {
			if !bytes.Equal(got, want[i]) {
				rep.failf("served %c.csv differs from the facade's CSV for the same experiment", 'A'+i)
			}
		}
	}

	if rc.traced {
		return runServedTraced(rc, sc, rep, check)
	}

	// Set-up on its own, repeated: it is too short to take from the few
	// timed passes alone.
	setups, err := repeatSetup(rc.sz.setupReps, func() (time.Duration, error) {
		live, err := servedSetup(rc, nil, &clientStats{})
		if err != nil {
			return 0, err
		}
		return live.took, live.stop()
	})
	if err != nil {
		return nil, err
	}

	var first *servedOut
	pass := 0
	walls, peaks, err := timedPasses(rc.seconds, func() (time.Duration, error) {
		out, err := servedPass(rc, sc, nil)
		if err != nil {
			return 0, err
		}
		pass++
		check(out)
		if first == nil {
			first = out
		} else if out.events != first.events {
			rep.failf("pass %d simulated %d kernel events, pass 1 %d", pass, out.events, first.events)
		}
		rep.attempted += out.requests + out.cells
		return out.wall, nil
	})
	if err != nil {
		return nil, err
	}
	rep.artefacts["A.csv"], rep.artefacts["B.csv"], rep.artefacts["C.csv"] = first.csvA, first.csvB, first.csvC
	rep.endToEnd(walls, peaks, setups, first.events, fmt.Sprintf("%d requests, %d simulated cells", first.requests, first.cells))
	rep.notef("first pass: cold %.3f s, overlap %.3f s, fork %.3f s, restart p50 %.2f ms (n=%d), warm p50 %.3f ms (n=%d)",
		secs(first.cold), secs(first.overlap), secs(first.fork), median(first.restartMS), len(first.restartMS), median(first.warmMS), len(first.warmMS))
	return rep, nil
}

// runServedTraced is the traced run of served_mix: one untraced reference
// pass, then the same mix with spans around every client call, under the
// CPU profiler, plus the micro-drives of the layers only this workload
// exercises.
func runServedTraced(rc runCfg, sc servedCase, rep *report, check func(*servedOut)) (*report, error) {
	timerNS := timerCost()
	runtime.GC()
	ref, err := servedPass(rc, sc, nil)
	if err != nil {
		return nil, err
	}
	check(ref)

	tr := newTracer()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	prof, err := startProfile(filepath.Join(rc.outDir, "cpu-"+rc.workload+".pprof"))
	if err != nil {
		return nil, err
	}
	out, err := servedPass(rc, sc, tr)
	prof.stop()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	check(out)
	if out.events != ref.events {
		rep.failf("traced pass simulated %d kernel events, untraced %d", out.events, ref.events)
	}
	rep.attempted = out.requests + out.cells
	rep.artefacts["A.csv"], rep.artefacts["B.csv"], rep.artefacts["C.csv"] = out.csvA, out.csvB, out.csvC

	m := rep.metrics
	m["cold_request_s"] = secs(out.cold)
	m["overlap_request_s"] = secs(out.overlap)
	m["fork_request_s"] = secs(out.fork)
	m["restart_request_ms_p50"] = median(out.restartMS)
	m["warm_request_ms_p50"] = median(out.warmMS)

	// The service builds its simulations privately: of the simulator's
	// layers only the kernel totals are visible, through the manifests.
	var manifests []*hyperx.Manifest
	for i := range out.results {
		manifests = append(manifests, out.results[i].Manifest)
	}
	nsPerEvent := kernelMicroDrive(rc.sz.kernelEvents)
	m["sim.kernel_ns_per_event"] = nsPerEvent
	m["sim.events"] = float64(out.events)
	m["sim.cycles"] = float64(out.cycles)
	m["sim.events_per_cycle"] = ratio(float64(out.events), float64(out.cycles))
	m["sim.est_busy_s"] = float64(out.events) * nsPerEvent / 1e9
	m["network.delivered_pkts"] = float64(out.delivered)
	m["topology.build_ms"] = topologyBuildMS(rc.sz.paper)

	saveMS, loadMS, err := storeMicroDrive(rc.outDir, rc.sz.storeOps)
	if err != nil {
		return nil, err
	}
	m["checkpoint.save_ms_p50"] = saveMS
	m["checkpoint.load_ms_p50"] = loadMS
	m["checkpoint.hits"] = float64(out.store.Hits)
	m["checkpoint.misses"] = float64(out.store.Misses)
	m["checkpoint.bytes"] = float64(out.store.Bytes)

	harnessMetrics(m, manifests, 2)
	m["harness.flight_computes"] = float64(out.cache.Flight.Computes)
	m["harness.flight_shared"] = float64(out.cache.Flight.Shared)

	m["serve.submit_ms_p50"] = median(out.submitMS)
	m["serve.result_csv_ms_p50"] = median(out.csvMS)
	m["serve.warm_request_ms_p95"] = quantile(out.warmMS, 0.95)
	m["serve.restart_request_ms_p90"] = quantile(out.restartMS, 0.90)
	m["serve.refused"] = float64(out.refused)
	m["serve.cells_cached"] = float64(out.store.Hits + out.restartCached)
	m["serve.cells_computed"] = float64(out.cache.Flight.Computes)

	var writes []float64
	var buf bytes.Buffer
	for i := 0; i < 50; i++ {
		buf.Reset()
		t0 := time.Now()
		if err := hyperx.WriteSweepCSV(&buf, out.results[0].Curves); err != nil {
			return nil, err
		}
		writes = append(writes, ms(time.Since(t0)))
	}
	if !bytes.Equal(buf.Bytes(), out.csvA) {
		rep.failf("WriteSweepCSV over result.json's curves differs from the served result.csv")
	}
	m["csv.write_ms"] = median(writes)
	m["csv.bytes"] = float64(buf.Len())

	runtimeMetrics(m, &ms0, &ms1)
	m["trace.timer_ns"] = timerNS
	m["trace.overhead_frac"] = ratio(secs(out.wall), secs(ref.wall)) - 1
	m["trace.spans"] = float64(len(tr.spans))
	reconcile(rep, prof, nil)

	self := tr.selfTimes()
	rep.notef("client self times: submit %.3f s, events %.3f s, result_csv %.3f s, restart.server %.3f s, setup %.4f s",
		secs(self["serve.submit"]), secs(self["serve.events"]), secs(self["serve.result_csv"]), secs(self["restart.server"]), secs(self["setup"]))
	rep.notef("traced pass %.3f s, reference pass %.3f s; %d requests, %d cells simulated", secs(out.wall), secs(ref.wall), out.requests, out.cells)
	path := filepath.Join(rc.outDir, "trace-"+rc.workload+".json")
	if err := tr.write(path, m); err != nil {
		return nil, err
	}
	rep.notef("%d spans written to %s", len(tr.spans), path)
	return rep, nil
}
