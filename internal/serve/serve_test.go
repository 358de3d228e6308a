package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hyperx"
	"hyperx/internal/serve"
)

// clock is the injected test clock (the package is in the determinism
// scope: tests never read the wall clock). Every call advances one
// second from a fixed epoch.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *clock { return &clock{t: time.Unix(1700000000, 0).UTC()} }

func (c *clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Second)
	return c.t
}

// service spins up a Server (with a persistent store at dir when
// non-empty) behind an httptest listener, torn down with the test.
func service(t *testing.T, dir string, mutate func(*serve.Options)) (*serve.Server, *httptest.Server) {
	t.Helper()
	opts := serve.Options{CheckpointDir: dir, Now: newClock().Now}
	if mutate != nil {
		mutate(&opts)
	}
	srv, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, ts
}

// testConfig is the small fast network every serve test sweeps: 16
// routers, 32 terminals, short windows.
func testConfig() hyperx.Config {
	return hyperx.Config{Widths: []int{4, 4}, Terms: 2, Seed: 1}
}

func testOpts() hyperx.RunOpts {
	return hyperx.RunOpts{Warmup: 1000, Window: 1000}
}

// sweepRequest is the canonical small sweep (4 cells) used across the
// suite; its expected CSV comes straight from the facade.
func sweepRequest() *serve.Request {
	return &serve.Request{
		Kind:       "sweep",
		Config:     testConfig(),
		Patterns:   []string{"UR"},
		Algorithms: []string{"DOR", "DimWAR"},
		Loads:      []float64{0.1, 0.2},
		Opts:       testOpts(),
	}
}

func submitJSON(t *testing.T, ts *httptest.Server, body []byte) (serve.JobStatus, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	return st, resp.StatusCode
}

func submit(t *testing.T, ts *httptest.Server, req *serve.Request) (serve.JobStatus, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return submitJSON(t, ts, body)
}

// eventLine mirrors one NDJSON record of GET /v1/jobs/{id}/events.
type eventLine struct {
	State string `json:"state"`
	Error string `json:"error"`
	Event *struct {
		Label  string `json:"label"`
		Status string `json:"status"`
		Cached bool   `json:"cached"`
		Done   int    `json:"done"`
		Total  int    `json:"total"`
	} `json:"event"`
}

// streamUntil consumes the events stream, handing each line to fn,
// until fn returns true or the stream ends; it returns the last state
// line seen. The stream blocks server-side between events, so this is
// the suite's deterministic, sleep-free way to wait on a job.
func streamUntil(t *testing.T, ts *httptest.Server, id string, fn func(eventLine) bool) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	last := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var line eventLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.State != "" {
			last = line.State
		}
		if fn != nil && fn(line) {
			return last
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return last
}

func terminalState(s string) bool { return s == "done" || s == "failed" || s == "cancelled" }

// waitDone blocks until the job reaches a terminal state and returns it.
func waitDone(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	return streamUntil(t, ts, id, nil)
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func getJSON(t *testing.T, ts *httptest.Server, path string, into any) {
	t.Helper()
	code, body := get(t, ts, path)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, code, body)
	}
	if err := json.Unmarshal(body, into); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

// TestSweepEndToEndMatchesCLI is the tentpole contract: the daemon's
// result.csv for a sweep is byte-identical to what cmd/hxsweep prints
// (both render RunLoadSweepParallel through WriteSweepCSV).
func TestSweepEndToEndMatchesCLI(t *testing.T) {
	_, ts := service(t, t.TempDir(), nil)
	req := sweepRequest()

	st, code := submit(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if st.ID == "" || st.Kind != "sweep" {
		t.Fatalf("submit status: %+v", st)
	}
	if got := waitDone(t, ts, st.ID); got != "done" {
		t.Fatalf("job state %q, want done", got)
	}

	code, body := get(t, ts, "/v1/jobs/"+st.ID+"/result.csv")
	if code != http.StatusOK {
		t.Fatalf("result.csv: status %d: %s", code, body)
	}

	curves, _, err := hyperx.RunLoadSweepParallel(context.Background(), req.Config,
		req.Patterns, req.Algorithms, req.Loads, req.Opts, hyperx.SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := hyperx.WriteSweepCSV(&want, curves); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("served CSV differs from CLI CSV:\nserved:\n%s\ncli:\n%s", body, want.Bytes())
	}

	var final serve.JobStatus
	getJSON(t, ts, "/v1/jobs/"+st.ID, &final)
	if final.State != "done" || final.JobsTotal != 4 || final.JobsDone != 4 {
		t.Errorf("final status: %+v, want done 4/4", final)
	}
	if final.StartedAt == nil || final.FinishedAt == nil {
		t.Errorf("final status missing timestamps: %+v", final)
	}

	var res serve.ResultJSON
	getJSON(t, ts, "/v1/jobs/"+st.ID+"/result.json", &res)
	if res.Kind != "sweep" || len(res.Curves) != 2 || res.Manifest == nil {
		t.Errorf("result.json: kind=%q curves=%d manifest=%v", res.Kind, len(res.Curves), res.Manifest != nil)
	}
}

// TestResilienceEndToEndMatchesCLI: same contract for the resilience
// experiment (kind "resilience" ≙ hxsweep -resilience).
func TestResilienceEndToEndMatchesCLI(t *testing.T) {
	_, ts := service(t, t.TempDir(), nil)
	req := &serve.Request{
		Kind:       "resilience",
		Config:     testConfig(),
		Patterns:   []string{"UR"},
		Algorithms: []string{"DimWAR"},
		MaxFaults:  2,
		Load:       0.3,
		Opts:       testOpts(),
	}
	st, code := submit(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if got := waitDone(t, ts, st.ID); got != "done" {
		t.Fatalf("job state %q, want done", got)
	}
	code, body := get(t, ts, "/v1/jobs/"+st.ID+"/result.csv")
	if code != http.StatusOK {
		t.Fatalf("result.csv: status %d", code)
	}

	points, _, err := hyperx.RunResilienceSweep(context.Background(), req.Config,
		"UR", req.Algorithms, req.MaxFaults, req.Load, req.Opts, hyperx.SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := hyperx.WriteResilienceCSV(&want, points); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("served resilience CSV differs from CLI:\nserved:\n%s\ncli:\n%s", body, want.Bytes())
	}
}

// TestThroughputEndToEndMatchesCLI: same contract for the Figure 6g
// grid (kind "throughput" ≙ hxsweep -throughput).
func TestThroughputEndToEndMatchesCLI(t *testing.T) {
	_, ts := service(t, t.TempDir(), nil)
	req := &serve.Request{
		Kind:       "throughput",
		Config:     testConfig(),
		Patterns:   []string{"UR", "BC"},
		Algorithms: []string{"DOR"},
		Opts:       testOpts(),
	}
	st, code := submit(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if got := waitDone(t, ts, st.ID); got != "done" {
		t.Fatalf("job state %q, want done", got)
	}
	code, body := get(t, ts, "/v1/jobs/"+st.ID+"/result.csv")
	if code != http.StatusOK {
		t.Fatalf("result.csv: status %d", code)
	}

	grid, _, err := hyperx.RunThroughputGrid(context.Background(), req.Config,
		req.Patterns, req.Algorithms, req.Opts, hyperx.SweepOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := hyperx.WriteThroughputCSV(&want, grid); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("served throughput CSV differs from CLI:\nserved:\n%s\ncli:\n%s", body, want.Bytes())
	}
}

// TestMalformedRequests: every way a submission can be wrong is a 400
// with a JSON error body, never a 500 and never a silently-started job.
func TestMalformedRequests(t *testing.T) {
	_, ts := service(t, "", nil)
	cases := []struct {
		name string
		body string
		want string // substring of the error message
	}{
		{"invalid json", `{"kind"`, "parsing request body"},
		{"unknown field", `{"confg": {}}`, "unknown field"},
		{"removed ShardWindow option", `{"opts": {"ShardWindow": 50}}`, "unknown field"},
		{"trailing data", `{} {}`, "trailing data"},
		{"unknown kind", `{"kind": "experiment"}`, "unknown kind"},
		{"unknown algorithm", `{"algorithms": ["QUANTUM"]}`, "unknown algorithm"},
		{"unknown pattern", `{"patterns": ["nope"]}`, "unknown pattern"},
		{"loads and step", `{"loads": [0.1], "step": 0.05}`, "mutually exclusive"},
		{"negative load", `{"loads": [-0.1]}`, "loads must be positive"},
		{"negative width", `{"config": {"Widths": [4, -4]}}`, "widths must be positive"},
		{"negative step", `{"step": -0.1}`, "step must be positive"},
		{"absurdly fine step", `{"step": 1e-9}`, "at most 1000 points"},
		{"step above one", `{"step": 2}`, "step must lie in"},
		{"oversized load grid", `{"loads": [0.5` + strings.Repeat(",0.5", 1000) + `]}`, "at most 1000 load points"},
		{"step on throughput", `{"kind": "throughput", "step": 0.1}`, "do not apply"},
		{"fork on resilience", `{"kind": "resilience", "max_faults": 1, "fork": {}}`, "kind sweep only"},
		{"max_faults on throughput", `{"kind": "throughput", "max_faults": 2}`, "kind resilience only"},
		{"negative max_faults", `{"kind": "resilience", "max_faults": -2}`, "max_faults >= 1"},
		{"max_faults on sweep", `{"max_faults": 3}`, "kind resilience only"},
		{"fork on throughput", `{"kind": "throughput", "fork": {}}`, "kind sweep only"},
		{"loads on throughput", `{"kind": "throughput", "loads": [0.5]}`, "do not apply"},
		{"resilience without max_faults", `{"kind": "resilience"}`, "max_faults >= 1"},
		{"resilience two patterns", `{"kind": "resilience", "max_faults": 1, "patterns": ["UR", "BC"]}`, "exactly one pattern"},
		{"negative terms", `{"config": {"Terms": -1}}`, "config counts, sizes and latencies must be non-negative"},
		{"negative latency", `{"config": {"Widths": [2, 2], "Algorithm": "DOR", "TermChanLat": -10}}`, "config counts, sizes and latencies must be non-negative"},
		{"negative buffer depth", `{"config": {"BufDepth": -256}}`, "config counts, sizes and latencies must be non-negative"},
		{"negative warmup and window", `{"config": {"Widths": [2, 2], "Algorithm": "DOR"}, "opts": {"Warmup": -100, "Window": -100}}`, "opts fields must be non-negative"},
		{"negative latency cap", `{"opts": {"LatencyCap": -1}}`, "opts fields must be non-negative"},
		{"negative shards", `{"opts": {"Shards": -2}}`, "opts fields must be non-negative"},
		{"negative fork settle", `{"fork": {"Settle": -5}}`, "fork fields must be non-negative"},
		{"negative fork warm load", `{"fork": {"WarmCycles": 500, "WarmLoad": -0.5}}`, "fork fields must be non-negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
			}
			var eb struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
				t.Fatalf("error body %q is not {\"error\": ...}: %v", body, err)
			}
			if !strings.Contains(eb.Error, tc.want) {
				t.Errorf("error %q does not mention %q", eb.Error, tc.want)
			}
		})
	}
}

// TestUnknownJobRoutes: every per-job route 404s for an unknown ID.
func TestUnknownJobRoutes(t *testing.T) {
	_, ts := service(t, "", nil)
	for _, path := range []string{
		"/v1/jobs/feedfacefeedface",
		"/v1/jobs/feedfacefeedface/events",
		"/v1/jobs/feedfacefeedface/result.csv",
		"/v1/jobs/feedfacefeedface/result.json",
	} {
		if code, _ := get(t, ts, path); code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, code)
		}
	}
}

// TestResultNotReadyConflicts: fetching the result of a job that is
// still queued or running is a 409, not a hang or an empty 200. The
// single executor is parked on the BeforeRun seam while the checks run,
// so both states are observed deterministically.
func TestResultNotReadyConflicts(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	_, ts := service(t, "", func(o *serve.Options) {
		o.Executors = 1
		o.BeforeRun = func(string) {
			entered <- struct{}{}
			<-release
		}
	})

	first, code := submit(t, ts, sweepRequest())
	if code != http.StatusAccepted {
		t.Fatalf("submit first: status %d", code)
	}
	<-entered // the first job is now running and parked

	second := sweepRequest()
	second.Config.Seed = 99 // a different experiment, behind it in the queue
	secondSt, code := submit(t, ts, second)
	if code != http.StatusAccepted {
		t.Fatalf("submit second: status %d", code)
	}

	if code, body := get(t, ts, "/v1/jobs/"+secondSt.ID+"/result.csv"); code != http.StatusConflict {
		t.Errorf("queued job result: status %d, want 409; body %s", code, body)
	}
	if code, body := get(t, ts, "/v1/jobs/"+first.ID+"/result.csv"); code != http.StatusConflict {
		t.Errorf("running job result: status %d, want 409; body %s", code, body)
	}

	close(release) // unpark the first job and every later one
	<-entered      // the second follows through the seam
	for _, id := range []string{first.ID, secondSt.ID} {
		if got := waitDone(t, ts, id); got != "done" {
			t.Errorf("job %s: state %q, want done", id, got)
		}
	}
}

// TestResubmitAttachesWithoutRecompute: resubmitting a completed
// experiment returns the same job (HTTP 200, same ID) and triggers no
// new computation — the compute counter and the result bytes are
// untouched.
func TestResubmitAttachesWithoutRecompute(t *testing.T) {
	_, ts := service(t, t.TempDir(), nil)
	req := sweepRequest()

	st, code := submit(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if got := waitDone(t, ts, st.ID); got != "done" {
		t.Fatalf("job state %q, want done", got)
	}
	_, firstCSV := get(t, ts, "/v1/jobs/"+st.ID+"/result.csv")

	var before serve.CacheStatsBody
	getJSON(t, ts, "/v1/cache/stats", &before)
	if before.Flight.Computes != 4 {
		t.Fatalf("computes after first run = %d, want 4", before.Flight.Computes)
	}

	again, code := submit(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("resubmit: status %d, want 200 (attached)", code)
	}
	if again.ID != st.ID || again.State != "done" {
		t.Fatalf("resubmit attached to %+v, want done job %s", again, st.ID)
	}

	var after serve.CacheStatsBody
	getJSON(t, ts, "/v1/cache/stats", &after)
	if after.Flight.Computes != before.Flight.Computes {
		t.Errorf("resubmit recomputed: computes %d -> %d", before.Flight.Computes, after.Flight.Computes)
	}
	if after.Jobs.Done != 1 {
		t.Errorf("registry done jobs = %d, want 1 (attached, not duplicated)", after.Jobs.Done)
	}
	_, secondCSV := get(t, ts, "/v1/jobs/"+again.ID+"/result.csv")
	if !bytes.Equal(firstCSV, secondCSV) {
		t.Errorf("resubmitted CSV differs from original")
	}
}

// TestCacheStatsShape: the stats endpoint reports the store when one is
// configured and omits it when serving memory-only.
func TestCacheStatsShape(t *testing.T) {
	dir := t.TempDir()
	_, ts := service(t, dir, nil)
	var body serve.CacheStatsBody
	getJSON(t, ts, "/v1/cache/stats", &body)
	if body.Store == nil || body.Store.Dir != dir {
		t.Errorf("stats store = %+v, want dir %q", body.Store, dir)
	}

	_, tsNoStore := service(t, "", nil)
	var noStore serve.CacheStatsBody
	getJSON(t, tsNoStore, "/v1/cache/stats", &noStore)
	if noStore.Store != nil {
		t.Errorf("memory-only stats reported a store: %+v", noStore.Store)
	}
}
