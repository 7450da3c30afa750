package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mccmesh/internal/scenario"
)

// testSpec is a fast two-cell traffic scenario; variants derive from it by
// patching fields before marshalling.
func testSpec() scenario.Spec {
	return scenario.Spec{
		Name:   "server-test",
		Mesh:   scenario.Cube(5),
		Faults: scenario.FaultSpec{Inject: scenario.C("uniform"), Counts: []int{4}},
		Models: scenario.ComponentsOf("mcc"),
		Workload: scenario.WorkloadSpec{
			Patterns: scenario.ComponentsOf("uniform"),
			Rates:    []float64{0.02, 0.04},
		},
		Measure: scenario.MeasureSpec{Kind: scenario.MeasureTraffic, Warmup: 5, Window: 30},
		Seed:    11,
		Trials:  2,
		Exec:    &scenario.ExecSpec{Workers: 2},
	}
}

func specJSON(t *testing.T, spec scenario.Spec) string {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = -1 // tests hard-cancel on Close unless they opt in
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func decodeInfo(t *testing.T, r io.Reader) JobInfo {
	t.Helper()
	var info JobInfo
	if err := json.NewDecoder(r).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// submitSpec posts a spec and returns the response info plus headers.
func submitSpec(t *testing.T, ts *httptest.Server, body string) (JobInfo, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	return decodeInfo(t, resp.Body), resp
}

// waitTerminal polls a job until it leaves the queue/run states.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		info := decodeInfo(t, resp.Body)
		resp.Body.Close()
		if info.Status.Terminal() {
			return info
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobInfo{}
}

// waitRunning polls a job until a worker has claimed it.
func waitRunning(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decodeInfo(t, resp.Body).Status
		resp.Body.Close()
		if st == StatusRunning {
			return
		}
		if st.Terminal() {
			t.Fatalf("job %s reached %q before running", id, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never started", id)
}

func TestSubmitRunsToDone(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 2})
	info, resp := submitSpec(t, ts, specJSON(t, testSpec()))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission: status %d, want 202", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("X-Cache = %q, want miss", got)
	}
	if info.Status != StatusQueued && info.Status != StatusRunning {
		t.Errorf("fresh job status = %q", info.Status)
	}
	done := waitTerminal(t, ts, info.ID)
	if done.Status != StatusDone {
		t.Fatalf("status = %q (err %q), want done", done.Status, done.Error)
	}
	if done.Report == nil || len(done.Report.Cells) != 2 {
		t.Fatalf("report missing or wrong shape: %+v", done.Report)
	}
	if done.Cached {
		t.Error("first run marked cached")
	}
	if done.Events == 0 {
		t.Error("no observer events recorded")
	}
}

func TestResubmissionHitsCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: 2})
	body := specJSON(t, testSpec())
	first, _ := submitSpec(t, ts, body)
	firstDone := waitTerminal(t, ts, first.ID)

	// Resubmit with a different worker count: the digest ignores the
	// execution knob, so this must still hit.
	spec := testSpec()
	spec.SetWorkers(7)
	second, resp := submitSpec(t, ts, specJSON(t, spec))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached submission: status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("X-Cache = %q, want hit", got)
	}
	if resp.Header.Get("ETag") != etagOf(first.Digest) {
		t.Errorf("ETag = %q, want %q", resp.Header.Get("ETag"), etagOf(first.Digest))
	}
	if !second.Cached || second.Status != StatusDone {
		t.Fatalf("cached job: %+v", second)
	}
	secondDone := waitTerminal(t, ts, second.ID)

	repA, _ := json.Marshal(firstDone.Report)
	repB, _ := json.Marshal(secondDone.Report)
	if string(repA) != string(repB) {
		t.Errorf("cached report differs from computed report:\n%s\n%s", repA, repB)
	}
	if secondDone.Events != firstDone.Events {
		t.Errorf("cached event log length %d != original %d", secondDone.Events, firstDone.Events)
	}
	counters := s.Counters()
	if counters["server.jobs_completed"] != 1 {
		t.Errorf("jobs_completed = %d, want 1 (cache hit must not recompute)", counters["server.jobs_completed"])
	}
	if counters["server.cache_hits"] != 1 {
		t.Errorf("cache_hits = %d, want 1", counters["server.cache_hits"])
	}
}

func TestConditionalGetReturns304(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1})
	info, _ := submitSpec(t, ts, specJSON(t, testSpec()))
	waitTerminal(t, ts, info.ID)
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+info.ID, nil)
	req.Header.Set("If-None-Match", etagOf(info.Digest))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET: status %d, want 304", resp.StatusCode)
	}
}

// TestConcurrentJobsShareTopology is the acceptance gate: >= 4 jobs in
// flight at once over the same topology, race-clean (go test -race covers
// this test), every report identical to a direct sequential run.
func TestConcurrentJobsShareTopology(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: 4})

	// The reference report: the same spec run directly, no server involved.
	ref, err := scenario.New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	refRep, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	refJSON, _ := json.Marshal(refRep.Cells)

	// Distinct seeds defeat the result cache so all jobs really execute;
	// mesh and faults stay equal so the topology pool is shared. Job 0 keeps
	// the reference seed for the equality check.
	const n = 6
	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := testSpec()
			spec.Seed += uint64(i)
			info, _ := submitSpec(t, ts, specJSON(t, spec))
			ids[i] = info.ID
		}(i)
	}
	wg.Wait()
	for i, id := range ids {
		done := waitTerminal(t, ts, id)
		if done.Status != StatusDone {
			t.Fatalf("job %d (%s): status %q, err %q", i, id, done.Status, done.Error)
		}
		if i == 0 {
			got, _ := json.Marshal(done.Report.Cells)
			if string(got) != string(refJSON) {
				t.Errorf("served report differs from direct run:\n%s\n%s", got, refJSON)
			}
		}
	}
	topo := s.pool.Stats()
	if topo.Entries != 1 {
		t.Errorf("topology pool entries = %d, want 1 (all jobs share one prototype)", topo.Entries)
	}
	if topo.Shares != n-1 {
		t.Errorf("topology shares = %d, want %d", topo.Shares, n-1)
	}
	if topo.Clones == 0 {
		t.Error("no clones recorded: jobs did not draw from the pool")
	}
}

func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1})
	// A long spec: plenty of cells and window so cancellation lands mid-run.
	spec := testSpec()
	spec.Workload.Rates = []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06}
	spec.Measure.Window = 2000
	spec.Trials = 8
	info, _ := submitSpec(t, ts, specJSON(t, spec))
	waitRunning(t, ts, info.ID)
	resp, err := http.Post(ts.URL+"/v1/jobs/"+info.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	done := waitTerminal(t, ts, info.ID)
	if done.Status != StatusCanceled {
		t.Fatalf("status = %q (err %q), want canceled", done.Status, done.Error)
	}
	if !strings.Contains(done.Error, "context canceled") {
		t.Errorf("error = %q, want a context.Canceled message", done.Error)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1})
	// Fill the single worker with a job far too large to finish before the
	// cancel below lands, then queue a second and cancel it before it runs.
	slow := testSpec()
	slow.Mesh = scenario.Cube(9)
	slow.Measure.Window = 200000
	slow.Trials = 64
	blocker, _ := submitSpec(t, ts, specJSON(t, slow))
	waitRunning(t, ts, blocker.ID)

	queued := testSpec()
	queued.Seed = 999
	info, _ := submitSpec(t, ts, specJSON(t, queued))
	resp, err := http.Post(ts.URL+"/v1/jobs/"+info.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	done := waitTerminal(t, ts, info.ID)
	if done.Status != StatusCanceled {
		t.Fatalf("queued-then-cancelled job: status %q, want canceled", done.Status)
	}
	if done.Report != nil {
		t.Error("cancelled-while-queued job has a report")
	}
	// Unblock the worker so Cleanup does not wait on the slow job.
	http.Post(ts.URL+"/v1/jobs/"+blocker.ID+"/cancel", "", nil) //nolint:errcheck
}

// TestEventStreamMatchesDirectRun pins the streamed NDJSON event sequence to
// the observer stream of a direct run — the server adds transport, never
// content. The direct run uses a different worker count: the stream is
// workers-invariant end to end.
func TestEventStreamMatchesDirectRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1})
	info, _ := submitSpec(t, ts, specJSON(t, testSpec()))
	waitTerminal(t, ts, info.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var streamed []JobEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		streamed = append(streamed, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	spec := testSpec()
	spec.SetWorkers(4)
	var direct []JobEvent
	dsc, err := scenario.New(spec, scenario.WithObserver(func(ev scenario.Event) {
		direct = append(direct, wireEvent(ev))
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dsc.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	a, _ := json.Marshal(streamed)
	b, _ := json.Marshal(direct)
	if string(a) != string(b) {
		t.Errorf("streamed events differ from direct observer stream:\n%s\n%s", a, b)
	}
}

// TestEventStreamLive attaches to the stream before the job finishes and
// reads through to EOF, exercising the wait/wake path.
func TestEventStreamLive(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1})
	info, _ := submitSpec(t, ts, specJSON(t, testSpec()))
	resp, err := http.Get(ts.URL + "/v1/jobs/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("live stream delivered no events")
	}
	done := waitTerminal(t, ts, info.ID)
	if done.Events != lines {
		t.Errorf("streamed %d events, job recorded %d", lines, done.Events)
	}
}

// TestReportTextMatchesDirectRender pins the text rendering to the bytes
// `mcc run -spec` prints, enabling byte-for-byte CI diffs.
func TestReportTextMatchesDirectRender(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1})
	info, _ := submitSpec(t, ts, specJSON(t, testSpec()))
	waitTerminal(t, ts, info.ID)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + info.ID + "/report?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	sc, err := scenario.New(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := rep.Table.Render() + "\n"
	if string(body) != want {
		t.Errorf("served text report differs from direct render:\n--- served\n%s\n--- direct\n%s", body, want)
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1})
	for _, tc := range []struct {
		name, body string
	}{
		{"malformed", `{"mesh": `},
		{"unknown field", `{"mesh": {"x": 5, "y": 5, "z": 5}, "meshes": 3}`},
		{"invalid component", `{"mesh": {"x": 5, "y": 5, "z": 5}, "model": ["nope"]}`},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr apiError
		json.NewDecoder(resp.Body).Decode(&apiErr) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if apiErr.Error == "" {
			t.Errorf("%s: empty error payload", tc.name)
		}
	}
}

func TestStatsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1})
	info, _ := submitSpec(t, ts, specJSON(t, testSpec()))
	waitTerminal(t, ts, info.ID)

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Jobs["done"] != 1 {
		t.Errorf("stats jobs = %v, want 1 done", st.Jobs)
	}
	if st.Counters["server.jobs_submitted"] != 1 {
		t.Errorf("counters = %v", st.Counters)
	}
	if st.Topo.Entries != 1 || st.Topo.Clones == 0 {
		t.Errorf("topo stats = %+v", st.Topo)
	}
}

func TestTelemetryJobBypassesCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Jobs: 1})
	body := specJSON(t, testSpec())
	plain, _ := submitSpec(t, ts, body)
	waitTerminal(t, ts, plain.ID)

	resp, err := http.Post(ts.URL+"/v1/jobs?telemetry=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	telInfo := decodeInfo(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("telemetry submission: status %d, want 202 (must not be served from cache)", resp.StatusCode)
	}
	done := waitTerminal(t, ts, telInfo.ID)
	if done.Status != StatusDone {
		t.Fatalf("telemetry job: %q (%s)", done.Status, done.Error)
	}
	if done.Report.Telemetry == nil {
		t.Error("telemetry job report has no counter section")
	}
	// The telemetry run must not have poisoned the cache for plain jobs.
	third, resp3 := submitSpec(t, ts, body)
	if resp3.Header.Get("X-Cache") != "hit" {
		t.Error("plain resubmission missed the cache after a telemetry run")
	}
	done3 := waitTerminal(t, ts, third.ID)
	if done3.Report.Telemetry != nil {
		t.Error("cached plain report carries telemetry")
	}
	if got := s.Counters()["server.jobs_completed"]; got != 2 {
		t.Errorf("jobs_completed = %d, want 2", got)
	}
}

func TestQueueFullReturns503(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1, Queue: 1})
	slow := testSpec()
	slow.Mesh = scenario.Cube(9)
	slow.Measure.Window = 200000
	slow.Trials = 64
	// One running + one queued fills the server; the third must bounce. The
	// first submission must be claimed before the second lands, or the second
	// would itself see a full queue.
	ids := []string{}
	for i := 0; i < 2; i++ {
		spec := slow
		spec.Seed = uint64(100 + i)
		info, _ := submitSpec(t, ts, specJSON(t, spec))
		ids = append(ids, info.ID)
		if i == 0 {
			waitRunning(t, ts, info.ID)
		}
	}
	spec := slow
	spec.Seed = 300
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(specJSON(t, spec)))
	if err != nil {
		t.Fatal(err)
	}
	var payload apiError
	json.NewDecoder(resp.Body).Decode(&payload) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submission: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("queue-full 503 carries no Retry-After header")
	}
	if payload.Status != http.StatusServiceUnavailable || payload.RetryAfterSec < 1 {
		t.Errorf("queue-full structured body = %+v", payload)
	}
	for _, id := range ids {
		http.Post(ts.URL+"/v1/jobs/"+id+"/cancel", "", nil) //nolint:errcheck
	}
}

func TestUnknownJobIs404(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1})
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/events", "/v1/jobs/nope/report"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestSSEFraming(t *testing.T) {
	_, ts := newTestServer(t, Config{Jobs: 1})
	info, _ := submitSpec(t, ts, specJSON(t, testSpec()))
	waitTerminal(t, ts, info.ID)
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+info.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "data: {") {
		t.Error("SSE stream has no data frames")
	}
	if !strings.HasSuffix(text, fmt.Sprintf("event: done\ndata: %q\n\n", StatusDone)) {
		t.Errorf("SSE stream does not end with the done event:\n%s", text[max(0, len(text)-200):])
	}
}
