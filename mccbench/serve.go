package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mccmesh/internal/rng"
	"mccmesh/internal/scenario"
	"mccmesh/internal/server"
	"mccmesh/internal/telemetry"
)

// The serve-mix client mix. Each client is a closed loop: submit, wait for
// the terminal state, fetch the report, repeat. After a fresh job completes,
// a client immediately re-sends the same spec with probability retryShare,
// the retry pattern of a client that waits on a job and resubmits; otherwise
// it resubmits one of its own recently completed specs with probability
// resubmitShare, and else submits a fresh-seed sweep over one of the shared
// topologies.
//
// The two shares are chosen, not measured from real traffic. They are set
// for what the benchmark needs: in steady state a client submits a fresh
// spec with probability f = 0.55 / 1.165 ≈ 0.47 (f = f·0.7·0.55 +
// (1-f)·0.55), so hits and cold runs are each about half the jobs and both
// latency classes get many samples; and immediate retries are about a
// quarter of the resubmissions (0.47·0.3 / 0.53), often enough to count the
// publish-before-cache race in every run.
const (
	clients       = 2
	serveJobs     = 2
	retryShare    = 0.3
	resubmitShare = 0.45
	// recentSpecs bounds each client's resubmission pool, so both clients
	// together stay inside the server's 128-entry result cache.
	recentSpecs = 48
	// warmupJobs are each client's first iterations, run and checked but not
	// measured.
	warmupJobs = 3
	// setupRepeats is how many servers a run starts to time set-up, half
	// before the measured window and half after it; one start takes well
	// under a millisecond and varies with the host from second to second,
	// so the median needs many, spread over the run.
	setupRepeats = 1000
	// rateSlice is the length of the slices of the measured window whose
	// median rate the throughput metrics report, so a few slow seconds of a
	// shared host do not move them.
	rateSlice = 2 * time.Second
	// rssJobs is the number of completed jobs, warm-up included, after
	// which peak_rss_mb is read. The server keeps every job it served, so
	// memory read at the end of the window would grow with the host's speed.
	rssJobs = 1000
)

// jobSample is one client iteration.
type jobSample struct {
	spec   []byte
	digest string
	// hit is what the server did (X-Cache: hit); resub is what the client
	// intended: a resubmission of a spec it saw complete.
	hit, resub bool
	status     string
	report     [sha256.Size]byte
	// delivered is the packets the spec's trials deliver, from the
	// in-process verification run.
	delivered int64
	// Client-side times: submit sent, submit answered, first progress event
	// received, terminal state seen, report in hand.
	start, accepted, firstEvent, terminal, end time.Time
	measured                                   bool
}

func (s *jobSample) ms(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

// daemon is one in-process `mcc serve` instance behind a loopback listener.
type daemon struct {
	srv  *server.Server
	http *http.Server
	base string
	dir  string
	done chan struct{}
}

// startDaemon starts a server with its journal in a fresh state directory
// behind a loopback listener and waits until /v1/healthz answers.
func startDaemon(client *http.Client) (*daemon, error) {
	dir, err := os.MkdirTemp(workDir, "serve-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Jobs: serveJobs, StateDir: filepath.Join(dir, "state")})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{srv: srv, http: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String(), dir: dir, done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.http.Serve(ln) //nolint:errcheck // always ErrServerClosed after stop
	}()
	start := time.Now()
	for {
		resp, err := client.Get(d.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for reuse only
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Since(start) > 10*time.Second {
			d.stop()
			return nil, fmt.Errorf("server not healthy after 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// setupSeconds times n server starts and appends their times to secs. One
// start is server.New with the journal open in a fresh state directory,
// until /v1/healthz answers. The health check is served in-process, so the
// time is the server's and not the loopback network's.
func setupSeconds(secs []float64, n int) ([]float64, error) {
	for i := 0; i < n; i++ {
		dir, err := os.MkdirTemp(workDir, "setup-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		srv, err := server.New(server.Config{Jobs: serveJobs, StateDir: filepath.Join(dir, "state")})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/healthz", nil))
		elapsed := time.Since(start).Seconds()
		srv.Close()
		os.RemoveAll(dir)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("/v1/healthz answered HTTP %d on a new server", rec.Code)
		}
		secs = append(secs, elapsed)
	}
	return secs, nil
}

// stop closes the listener, drains the server and removes its state.
func (d *daemon) stop() {
	d.http.Close() //nolint:errcheck // listener and idle connections only
	<-d.done
	d.srv.Close()
	os.RemoveAll(d.dir)
}

// mixTemplates reads the serve-mix topology specs.
func mixTemplates() ([][]byte, error) {
	raw, err := os.ReadFile(filepath.Join(benchDir, "workloads", "serve-mix.json"))
	if err != nil {
		return nil, err
	}
	var docs []json.RawMessage
	if err := json.Unmarshal(raw, &docs); err != nil {
		return nil, fmt.Errorf("serve-mix.json: %w", err)
	}
	out := make([][]byte, len(docs))
	for i, d := range docs {
		out[i] = d
	}
	return out, nil
}

// serveWindow is one measured window against one daemon.
type serveWindow struct {
	setupS  float64
	samples []*jobSample
	// start and budget bound the measured window: it opens when warm-up
	// ends, and no client starts a measured job after start+budget.
	start  time.Time
	budget time.Duration
	stats  server.Stats
	// rssMB is the process's peak resident memory once rssJobs jobs had
	// completed, or at the end of the window if fewer did.
	rssMB float64
}

// runWindow starts a daemon and drives it with the client mix for budget,
// timing server set-up before and after.
func runWindow(seed uint64, budget time.Duration, templates [][]byte) (*serveWindow, error) {
	setups, err := setupSeconds(nil, setupRepeats/2)
	if err != nil {
		return nil, err
	}
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients},
		// Far above any job's time; it only keeps a hung server from
		// hanging the benchmark.
		Timeout: time.Minute,
	}
	defer client.CloseIdleConnections()
	d, err := startDaemon(client)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		samples []*jobSample
		errs    []error
		jobs    atomic.Int64
		// rssMB is written once, by the client that completes job
		// rssJobs, and read after wg.Wait.
		rssMB float64
	)
	jobDone := func() {
		if jobs.Add(1) == rssJobs {
			rssMB = peakRSSMB()
		}
	}
	// Warm-up ends when both clients finished their warm-up jobs; the
	// measured window and its deadline start then.
	var ready sync.WaitGroup
	ready.Add(clients)
	windowStart := make(chan time.Time, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			own, err := driveClient(client, d.base, rng.New(rng.Derive(seed, uint64(c))), templates, &ready, windowStart, budget, jobDone)
			mu.Lock()
			samples = append(samples, own...)
			if err != nil {
				errs = append(errs, err)
			}
			mu.Unlock()
		}(c)
	}
	ready.Wait()
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		windowStart <- t0
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	w := &serveWindow{samples: samples, start: t0, budget: budget, rssMB: rssMB}
	if jobs.Load() < rssJobs {
		w.rssMB = peakRSSMB()
	}
	if err := getJSON(client, d.base+"/v1/stats", &w.stats); err != nil {
		return nil, err
	}
	if setups, err = setupSeconds(setups, setupRepeats/2); err != nil {
		return nil, err
	}
	w.setupS = median(setups)
	return w, nil
}

// driveClient runs one closed-loop client: warmupJobs unmeasured iterations,
// then measured ones until budget has passed since the window started. It
// calls jobDone after each job. A transport failure ends the client with an
// error.
func driveClient(client *http.Client, base string, r *rng.Rand, templates [][]byte, ready *sync.WaitGroup, windowStart <-chan time.Time, budget time.Duration, jobDone func()) ([]*jobSample, error) {
	var (
		out    []*jobSample
		recent [][]byte
		last   *jobSample
		t0     time.Time
		warm   bool
	)
	defer func() {
		if !warm {
			ready.Done() // never leave runWindow waiting on a client that failed
		}
	}()
	for i := 0; ; i++ {
		if i == warmupJobs {
			warm = true
			ready.Done()
			t0 = <-windowStart
		}
		if i >= warmupJobs && time.Since(t0) >= budget {
			return out, nil
		}
		// The action depends only on the seed and the client's own earlier
		// actions, never on timing, so a seed always gives the same inputs.
		s := &jobSample{measured: i >= warmupJobs}
		retry, resub := r.Float64() < retryShare, r.Float64() < resubmitShare
		switch {
		case last != nil && !last.resub && retry:
			s.spec, s.resub = last.spec, true
		case len(recent) > 0 && resub:
			s.spec, s.resub = recent[r.Intn(len(recent))], true
		default:
			tmpl := templates[r.Intn(len(templates))]
			_, spec, err := specWithSeed(tmpl, r.Uint64())
			if err != nil {
				return out, err
			}
			s.spec = spec
		}
		if err := s.do(client, base); err != nil {
			return out, err
		}
		out = append(out, s)
		jobDone()
		last = s
		if !s.resub {
			recent = append(recent, s.spec)
			if len(recent) > recentSpecs {
				recent = recent[1:]
			}
		}
	}
}

// do runs one submission as `mcc submit -wait` does: POST the spec, follow
// the job's event stream to its terminal state, fetch the JSON report. An
// answer other than 2xx ends the submission with that answer as its status,
// which the verification counts as a failed operation; a transport error ends
// the run.
func (s *jobSample) do(client *http.Client, base string) error {
	s.start = time.Now()
	defer func() { s.end = time.Now() }()
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(s.spec))
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	var info server.JobInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		s.status = fmt.Sprintf("submit answered HTTP %d", resp.StatusCode)
		return nil
	}
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	s.accepted = time.Now()
	s.digest = info.Digest
	s.hit = resp.Header.Get("X-Cache") == "hit"

	req, err := http.NewRequest("GET", base+"/v1/jobs/"+info.ID+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err = client.Do(req)
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	final := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: done":
			final = true
		case strings.HasPrefix(line, "data: ") && final:
			s.status = strings.Trim(strings.TrimPrefix(line, "data: "), `"`)
		case strings.HasPrefix(line, "data: ") && s.firstEvent.IsZero():
			s.firstEvent = time.Now()
		}
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.status = fmt.Sprintf("events answered HTTP %d", resp.StatusCode)
		return nil
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	s.terminal = time.Now()
	if s.firstEvent.IsZero() {
		s.firstEvent = s.terminal
	}

	resp, err = client.Get(base + "/v1/jobs/" + info.ID + "/report?format=json")
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.status = fmt.Sprintf("report answered HTTP %d", resp.StatusCode)
		return nil
	}
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	s.report = sha256.Sum256(body)
	return nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// verifyReports checks every job a window ran: its status must be done and
// its report byte-equal to scenario.Run of the same spec in-process, encoded
// as the server encodes it. Distinct specs run on serveJobs goroutines. It
// also sets each sample's delivered packet count from the in-process run.
func verifyReports(samples []*jobSample, l *ledger) error {
	bySpec := map[string][]*jobSample{}
	var order []string
	for _, s := range samples {
		k := string(s.spec)
		if _, ok := bySpec[k]; !ok {
			order = append(order, k)
		}
		bySpec[k] = append(bySpec[k], s)
	}
	want := make([][sha256.Size]byte, len(order))
	delivered := make([]int64, len(order))
	errs := make([]error, len(order))
	var wg sync.WaitGroup
	for w := 0; w < serveJobs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(order); i += serveJobs {
				want[i], delivered[i], errs[i] = inProcessReport([]byte(order[i]))
			}
		}(w)
	}
	wg.Wait()
	for i, k := range order {
		if errs[i] != nil {
			return errs[i]
		}
		for _, s := range bySpec[k] {
			s.delivered = delivered[i]
			switch {
			case s.status != string(server.StatusDone):
				l.fail("serve-mix job %s: status %q", s.digest, s.status)
			default:
				l.ok(s.report == want[i], "serve-mix job %s: report differs from an in-process run", s.digest)
			}
		}
	}
	return nil
}

// inProcessReport runs spec in-process and returns the hash of its report as
// the server encodes it, and the packets its trials delivered. Telemetry is
// on for the count; it changes only the report's telemetry section, which is
// dropped before hashing because the server's jobs run without it.
func inProcessReport(spec []byte) (hash [sha256.Size]byte, delivered int64, err error) {
	sc, err := scenario.Load(bytes.NewReader(spec))
	if err != nil {
		return hash, 0, err
	}
	sc.EnableTelemetry()
	rep, err := sc.Run(context.Background())
	if err != nil {
		return hash, 0, err
	}
	for _, c := range rep.Telemetry {
		delivered += c.Counters[telemetry.PacketsDelivered.String()]
	}
	rep.Telemetry = nil
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return hash, 0, err
	}
	return sha256.Sum256(buf.Bytes()), delivered, nil
}

// runServe is the runner of serve-mix. Traced and untraced runs measure the
// same single window: the client records the times of every job's submit,
// first event, terminal state and report in either case, and the traced run
// only turns them into spans and per-layer metrics afterwards.
func runServe(cfg config, l *ledger) (map[string]metric, error) {
	templates, err := mixTemplates()
	if err != nil {
		return nil, err
	}
	w, err := runWindow(cfg.seed, cfg.budget, templates)
	if err != nil {
		return nil, err
	}
	if err := verifyReports(w.samples, l); err != nil {
		return nil, err
	}
	if !cfg.traced {
		m, err := w.endToEnd()
		if err != nil {
			return nil, err
		}
		m["peak_rss_mb"] = metric{w.rssMB, "MB"}
		return m, nil
	}
	tr := newTracer()
	for i, s := range w.samples {
		root := tr.add(span{ID: i, Name: "job", Parent: -1, Start: tr.at(s.start), End: tr.at(s.end)})
		tr.add(span{ID: i, Name: "server.submit", Parent: root, Start: tr.at(s.start), End: tr.at(s.accepted)})
		tr.add(span{ID: i, Name: "server.queue", Parent: root, Start: tr.at(s.accepted), End: tr.at(s.firstEvent)})
		tr.add(span{ID: i, Name: "server.run", Parent: root, Start: tr.at(s.firstEvent), End: tr.at(s.terminal)})
		tr.add(span{ID: i, Name: "client.report", Parent: root, Start: tr.at(s.terminal), End: tr.at(s.end)})
	}
	path, err := tr.write(fmt.Sprintf("serve-mix-seed%d", cfg.seed))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "mccbench: %d spans in %s\n", len(tr.spans), path)
	m := w.layers()
	// Nothing runs differently when traced, so the overhead is 1 by
	// construction.
	m["trace.overhead"] = metric{1, "ratio"}
	return m, nil
}

// measured returns the window's measured samples of one class that finished
// done; the others are failed operations and have no latency.
func (w *serveWindow) measured(keep func(*jobSample) bool) []*jobSample {
	var out []*jobSample
	for _, s := range w.samples {
		if s.measured && s.status == string(server.StatusDone) && keep(s) {
			out = append(out, s)
		}
	}
	return out
}

func isHit(s *jobSample) bool  { return s.hit }
func isCold(s *jobSample) bool { return !s.hit }
func anyJob(*jobSample) bool   { return true }

func oneJob(*jobSample) float64 { return 1 }

// coldPackets weighs a job by the packets the server simulated for it.
func coldPackets(s *jobSample) float64 {
	if s.hit {
		return 0
	}
	return float64(s.delivered)
}

// rate returns the median over the window's rateSlice slices of the summed
// weight of the measured done jobs per second. A job counts in each slice in
// proportion to the part of its submit-to-report time that falls in it, so
// a rate does not jump with the jobs that straddle a slice's end. A budget
// shorter than a slice makes one slice of it.
func (w *serveWindow) rate(weight func(*jobSample) float64) float64 {
	n := max(1, int(w.budget/rateSlice))
	slice := w.budget / time.Duration(n)
	sums := make([]float64, n)
	for _, s := range w.measured(anyJob) {
		a, b := s.start.Sub(w.start), s.end.Sub(w.start)
		for k := max(0, int(a/slice)); k < n && time.Duration(k)*slice < b; k++ {
			lo, hi := max(a, time.Duration(k)*slice), min(b, time.Duration(k+1)*slice)
			sums[k] += weight(s) * float64(hi-lo) / float64(max(1, b-a))
		}
	}
	for k := range sums {
		sums[k] /= slice.Seconds()
	}
	return median(sums)
}

// times returns f over samples, in milliseconds.
func times(samples []*jobSample, f func(*jobSample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

func total(s *jobSample) float64 { return s.ms(s.start, s.end) }

// endToEnd returns the window's end-to-end metrics: jobs completed per
// second, and the packets delivered by the jobs the server computed (the
// cold ones) per second, each the median over the window's slices.
func (w *serveWindow) endToEnd() (map[string]metric, error) {
	hits, cold := w.measured(isHit), w.measured(isCold)
	fmt.Fprintf(os.Stderr, "mccbench: serve-mix samples: %d hit, %d cold, %d resubmissions answered cold\n",
		len(hits), len(cold), len(w.measured(missAfterDone)))
	if len(hits) == 0 || len(cold) == 0 {
		return nil, errNoSamples
	}
	return map[string]metric{
		"packets_per_s": {w.rate(coldPackets), "1/s"},
		"jobs_per_s":    {w.rate(oneJob), "1/s"},
		"setup_s":       {w.setupS, "s"},
	}, nil
}

// missAfterDone selects resubmissions of a completed spec that the server
// computed again instead of answering from its cache.
func missAfterDone(s *jobSample) bool { return s.resub && !s.hit }

// layers returns the window's per-layer metrics. The latency classes time a
// job from submit until the report is in hand and are classed by what the
// server did (X-Cache), not by what the client intended.
func (w *serveWindow) layers() map[string]metric {
	all, cold := w.measured(anyJob), w.measured(isCold)
	resubs := w.measured(func(s *jobSample) bool { return s.resub })
	lifetimeCold := 0
	for _, s := range w.samples {
		if !s.hit {
			lifetimeCold++
		}
	}
	hitResubs := len(resubs) - len(w.measured(missAfterDone))
	hitMs, coldMs := times(w.measured(isHit), total), times(cold, total)
	return map[string]metric{
		"server.hit_ms_p50":       {quantile(hitMs, 0.5), "ms"},
		"server.hit_ms_p90":       {quantile(hitMs, 0.9), "ms"},
		"server.cold_ms_p50":      {quantile(coldMs, 0.5), "ms"},
		"server.cold_ms_p90":      {quantile(coldMs, 0.9), "ms"},
		"server.submit_ms_p50":    {median(times(all, func(s *jobSample) float64 { return s.ms(s.start, s.accepted) })), "ms"},
		"server.queue_ms_p50":     {median(times(cold, func(s *jobSample) float64 { return s.ms(s.accepted, s.firstEvent) })), "ms"},
		"server.run_ms_p50":       {median(times(cold, func(s *jobSample) float64 { return s.ms(s.firstEvent, s.terminal) })), "ms"},
		"server.cache_hit_ratio":  {float64(hitResubs) / float64(max(1, len(resubs))), "ratio"},
		"server.miss_after_done":  {float64(len(w.measured(missAfterDone))), "count"},
		"server.topo_share_ratio": {float64(w.stats.Topo.Shares) / float64(max(1, lifetimeCold)), "ratio"},
		"server.queue_depth_max":  {float64(w.stats.Counters["server.queue_depth"]), "count"},
		"server.hit_samples":      {float64(len(w.measured(isHit))), "count"},
		"server.cold_samples":     {float64(len(cold)), "count"},
	}
}
