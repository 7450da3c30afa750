// Package server is the scenario-execution daemon behind `mcc serve`: an HTTP
// API that accepts the same JSON specs as `mcc run -spec`, validates them
// up front, runs them on a bounded worker pool, and exposes the job lifecycle
// (status, structured reports, cancellation, streamed progress events).
//
// Two layers keep repeated work cheap. A result cache keyed by the canonical
// spec digest answers resubmissions of byte-equal specs with the stored
// report — results are workers-invariant, so a cached report is bit-identical
// to a recompute. A shared-topology pool hands jobs whose mesh/fault
// configuration hashes equal Clones of one immutable mesh prototype, so
// concurrent jobs share the read-only topology tables and allocate only the
// per-trial fault state.
//
// The daemon is built to outlive its jobs. A panic anywhere in a scenario run
// is recovered at the worker boundary and sealed as a FAILED job carrying the
// captured stack; a job deadline (spec timeout or the server-wide cap) seals
// the run as TIMEOUT with the completed cells preserved; SIGTERM drains
// gracefully (running jobs finish, queued jobs are EVICTED); and with a state
// directory configured, a crash-safe NDJSON journal resubmits whatever was in
// flight on the next start.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"mccmesh/internal/mesh"
	"mccmesh/internal/scenario"
	"mccmesh/internal/telemetry"
)

// Config sizes the server; zero values select the defaults.
type Config struct {
	// Jobs is the worker-pool size — the number of scenarios running
	// concurrently (default 4). Each job additionally shards its trials
	// across its spec's own Workers setting.
	Jobs int
	// Queue bounds the jobs waiting for a worker (default 64); submissions
	// beyond it are rejected with 503 rather than buffered without limit.
	Queue int
	// CacheSize bounds the result cache (default 128 reports).
	CacheSize int
	// Topos bounds the shared-topology pool (default 64 prototypes).
	Topos int
	// JobTimeout caps every job's wall-clock run time and is the default for
	// specs that set no timeout of their own (0 = unbounded). A spec timeout
	// above the cap is clamped to it.
	JobTimeout time.Duration
	// MaxShards caps the per-trial shard count a submitted spec may request
	// (its exec block's "shards"; 0 = uncapped). Requests above the cap are
	// clamped, mirroring JobTimeout — shards are an execution knob, so the
	// clamp changes resource use, never results or cache identity.
	MaxShards int
	// DrainTimeout is how long Close waits for running jobs to finish before
	// hard-cancelling them (default 5s; negative = hard-cancel immediately).
	DrainTimeout time.Duration
	// StateDir, when set, enables the crash-safe job journal: submitted specs
	// and terminal outcomes are appended to an NDJSON WAL there, and New
	// resubmits any job that was in flight when the previous process died.
	StateDir string
}

func (c Config) withDefaults() Config {
	if c.Jobs <= 0 {
		c.Jobs = 4
	}
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.Topos <= 0 {
		c.Topos = 64
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 5 * time.Second
	}
	return c
}

// Server is the daemon: an http.Handler plus the worker pool behind it.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	queue chan *Job
	pool  *TopoPool
	cache *resultCache
	jnl   *journal // nil unless Config.StateDir is set
	chaos chaos    // test-harness fault injection; zero rules in production

	// baseCtx parents every job context; a hard stop cancels it, aborting
	// running jobs before the worker goroutines are awaited.
	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listings
	nextID   int
	tel      *telemetry.Sink // guarded by mu: Sink itself is not goroutine-safe
	queued   int             // jobs accepted but not yet claimed by a worker
	draining bool            // BeginDrain called: refuse admission, evict queue
	svcEWMA  float64         // smoothed job service time (seconds), for Retry-After
}

// errDraining rejects submissions once a graceful shutdown has begun.
var errDraining = errors.New("server draining: not accepting new jobs")

// New returns a started server: workers are running and ServeHTTP is live.
// With Config.StateDir set it also opens the job journal and resubmits every
// job the journal shows as in flight (submitted, never sealed) — each replayed
// record is sealed as "replayed" pointing at its new job id, so a second
// restart never replays it again. Call Close to drain the server.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		queue:   make(chan *Job, cfg.Queue),
		pool:    NewTopoPool(cfg.Topos),
		cache:   newResultCache(cfg.CacheSize),
		baseCtx: ctx,
		stop:    cancel,
		jobs:    make(map[string]*Job),
		tel:     telemetry.NewSink(),
	}
	var pending []journalRecord
	if cfg.StateDir != "" {
		jnl, recs, maxID, err := openJournal(cfg.StateDir)
		if err != nil {
			cancel()
			return nil, err
		}
		s.jnl = jnl
		s.nextID = maxID
		pending = recs
	}
	s.mux = s.routes()
	for i := 0; i < cfg.Jobs; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.replay(pending)
	return s, nil
}

// replay resubmits the journal's in-flight records under fresh job ids. Each
// old record is sealed either as "replayed" (with its new id) or — when the
// spec no longer validates or the queue cannot take it — as failed, so no
// record is ever replayed twice.
func (s *Server) replay(pending []journalRecord) {
	for _, rec := range pending {
		sc, err := scenario.Load(bytes.NewReader(rec.Spec))
		if err == nil {
			var job *Job
			if job, err = s.submit(sc, rec.Telemetry); err == nil {
				s.journalSeal(rec.ID, "replayed", "resubmitted as "+job.id)
				s.counter(func(t *telemetry.Sink) { t.Inc(telemetry.ServerJobsReplayed) })
				continue
			}
		}
		s.journalSeal(rec.ID, string(StatusFailed), "replay: "+err.Error())
	}
}

// ServeHTTP dispatches to the API routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// BeginDrain starts a graceful shutdown: admission stops (submissions are
// refused with 503), running jobs keep running, and jobs still queued are
// sealed EVICTED as workers reach them. Idempotent.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
}

// WaitDrain blocks until every worker has exited, hard-cancelling whatever is
// still running once grace expires (grace <= 0 hard-cancels immediately), then
// releases the journal. Call after BeginDrain.
func (s *Server) WaitDrain(grace time.Duration) {
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	if grace > 0 {
		select {
		case <-done:
		case <-time.After(grace):
			s.stop()
			<-done
		}
	} else {
		s.stop()
		<-done
	}
	s.stop()
	s.jnl.close()
}

// Close shuts the server down gracefully: drain, wait up to the configured
// DrainTimeout for running jobs, then hard-cancel whatever remains.
func (s *Server) Close() {
	s.BeginDrain()
	s.WaitDrain(s.cfg.DrainTimeout)
}

// counter applies fn to the server's telemetry sink under the server lock
// (the Sink type itself is single-threaded by design).
func (s *Server) counter(fn func(*telemetry.Sink)) {
	s.mu.Lock()
	fn(s.tel)
	s.mu.Unlock()
}

// Counters returns a snapshot of the server's lifecycle counters.
func (s *Server) Counters() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tel.Snapshot()
}

// submit registers a validated scenario as a job. When the spec's digest is
// cached (and telemetry is off — telemetry changes report content), the job
// is sealed immediately from the cache; otherwise it is queued and journaled.
// The error is non-nil only when the queue is full or the server is draining.
func (s *Server) submit(sc *scenario.Scenario, withTelemetry bool) (*Job, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errDraining
	}
	s.nextID++
	id := fmt.Sprintf("j%04d", s.nextID)
	s.mu.Unlock()
	jobCtx, cancel := context.WithCancel(s.baseCtx)
	job := newJob(id, sc, cancel)
	job.telemetry = withTelemetry
	job.ctx = jobCtx

	if !withTelemetry {
		if e, ok := s.cache.get(job.digest); ok {
			// Answered without running: nothing in flight, nothing journaled.
			job.fillCached(e.report, e.events)
			cancel()
			s.register(job)
			s.counter(func(t *telemetry.Sink) {
				t.Inc(telemetry.ServerJobsSubmitted)
				t.Inc(telemetry.ServerCacheHits)
			})
			return job, nil
		}
	}

	// The submit record lands before the job is queued: once queued, a
	// worker may seal it at any moment, and a seal journaled ahead of its
	// submit would leave the submit looking in flight to the next restart.
	s.journalSubmit(job)
	reject := func(err error) (*Job, error) {
		cancel()
		s.journalSeal(id, "rejected", err.Error())
		return nil, err
	}
	s.mu.Lock()
	if s.draining {
		// Re-checked under the same lock BeginDrain closes the queue under,
		// so a send can never race the close.
		s.mu.Unlock()
		return reject(errDraining)
	}
	select {
	case s.queue <- job:
	default:
		s.mu.Unlock()
		return reject(fmt.Errorf("job queue full (%d waiting)", s.cfg.Queue))
	}
	s.queued++
	s.tel.Inc(telemetry.ServerJobsSubmitted)
	s.tel.Max(telemetry.ServerQueueDepth, int64(s.queued))
	s.mu.Unlock()
	s.register(job)
	return job, nil
}

// journalSubmit appends a job's submit record (no-op without a journal). The
// chaos point simulates the append being lost to a crash.
func (s *Server) journalSubmit(job *Job) {
	if s.jnl == nil {
		return
	}
	if s.chaos.hit(ChaosJournalSubmit) != nil {
		return
	}
	spec, err := json.Marshal(job.sc.Spec())
	if err != nil {
		return
	}
	rec := journalRecord{Op: "submit", ID: job.id, Telemetry: job.telemetry, Spec: spec}
	s.jnl.append(rec) //nolint:errcheck // durability degrades, serving continues
}

// journalSeal appends a terminal-state record (no-op without a journal). The
// chaos point simulates a crash before the outcome was made durable — the
// record the restart replay then resubmits.
func (s *Server) journalSeal(id, status, errText string) {
	if s.jnl == nil {
		return
	}
	if s.chaos.hit(ChaosJournalSeal) != nil {
		return
	}
	rec := journalRecord{Op: "seal", ID: id, Status: status, Error: errText}
	s.jnl.append(rec) //nolint:errcheck // durability degrades, serving continues
}

// register indexes a job for the lookup and list endpoints.
func (s *Server) register(job *Job) {
	s.mu.Lock()
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
	s.mu.Unlock()
}

// job looks a job up by id.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// list returns every job's summary, in submission order.
func (s *Server) list() []JobInfo {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	infos := make([]JobInfo, 0, len(ids))
	for _, id := range ids {
		if j, ok := s.job(id); ok {
			infos = append(infos, j.Info(false))
		}
	}
	return infos
}

// worker drains the queue, running one job at a time. Once a drain begins,
// jobs still queued are evicted instead of run.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.mu.Lock()
		s.queued--
		draining := s.draining
		s.mu.Unlock()
		if draining {
			s.evictJob(job)
			continue
		}
		s.runJob(job)
	}
}

// evictJob seals a still-queued job as EVICTED during a drain.
func (s *Server) evictJob(job *Job) {
	job.sealQueued(StatusEvicted, "evicted: server draining; resubmit the spec", func() {
		s.journalSeal(job.id, string(StatusEvicted), "evicted: server draining")
		s.counter(func(t *telemetry.Sink) { t.Inc(telemetry.ServerJobsEvicted) })
	})
}

// jobDeadline resolves a job's effective wall-clock budget: the spec's own
// timeout, defaulted and capped by the server-wide JobTimeout (0 = unbounded).
func (s *Server) jobDeadline(spec scenario.Spec) time.Duration {
	d := time.Duration(spec.TimeoutSeconds() * float64(time.Second))
	if lim := s.cfg.JobTimeout; lim > 0 && (d <= 0 || d > lim) {
		d = lim
	}
	return d
}

// panicError is a scenario panic recovered at the worker boundary, carrying
// the goroutine stack captured at the panic site.
type panicError struct {
	val   any
	stack string
}

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.val) }

// runScenario executes the scenario under the run context with the worker
// goroutine shielded: a panic anywhere below becomes a *panicError instead of
// killing the process.
func (s *Server) runScenario(sc *scenario.Scenario, ctx context.Context) (rep *scenario.Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			rep, err = nil, &panicError{val: p, stack: string(debug.Stack())}
		}
	}()
	if cerr := s.chaos.hit(ChaosRun); cerr != nil {
		return nil, cerr
	}
	return sc.Run(ctx)
}

// observeServiceTime folds a completed run into the smoothed service-time
// estimate behind Retry-After.
func (s *Server) observeServiceTime(d time.Duration) {
	sec := d.Seconds()
	s.mu.Lock()
	if s.svcEWMA == 0 {
		s.svcEWMA = sec
	} else {
		s.svcEWMA = 0.7*s.svcEWMA + 0.3*sec
	}
	s.mu.Unlock()
}

// retryAfterSeconds estimates when a rejected client should try again: the
// smoothed job service time scaled by the current queue pressure, clamped to
// [1s, 10min]. With no completed job yet the estimate is the 1s floor.
func (s *Server) retryAfterSeconds() int {
	s.mu.Lock()
	ewma, queued := s.svcEWMA, s.queued
	s.mu.Unlock()
	est := ewma * (float64(queued)/float64(s.cfg.Jobs) + 1)
	sec := int(math.Ceil(est))
	if sec < 1 {
		sec = 1
	}
	if sec > 600 {
		sec = 600
	}
	return sec
}

// sealJob journals a job's terminal state, then records it on the job: the
// state a client can observe is always durable already. The chaos point sits
// before the seal so a Delay rule widens the cancel-vs-seal race window for
// the tests.
func (s *Server) sealJob(job *Job, st Status, rep *scenario.Report, errText string) {
	s.chaos.hit(ChaosSeal) //nolint:errcheck // only Delay rules are meaningful here
	s.journalSeal(job.id, string(st), errText)
	job.finish(st, rep, errText)
}

// runJob executes one job: it wires the observer into the job's event log,
// installs a shared-topology mesh source, runs the scenario under the job
// context (bounded by the effective deadline) and seals the outcome. Every
// side effect of an outcome — the result cache entry of a successful
// telemetry-free run, the lifecycle counters, the journal record — lands
// before the terminal state turns visible, so a client that sees DONE and
// resubmits always hits the cache.
func (s *Server) runJob(job *Job) {
	if !job.claim() {
		return // cancelled while queued; Cancel sealed and counted it
	}
	sc := job.sc
	sc.Observe(job.appendEvent)
	src, release := s.pool.Source(sc.Spec())
	defer release()
	sc.SetMeshSource(func() *mesh.Mesh {
		s.counter(func(t *telemetry.Sink) { t.Inc(telemetry.ServerTopoClones) })
		return src()
	})

	runCtx := job.ctx
	deadline := s.jobDeadline(sc.Spec())
	if deadline > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(job.ctx, deadline)
		defer cancel()
	}

	start := time.Now()
	rep, err := s.runScenario(sc, runCtx)
	var pe *panicError
	switch {
	case err == nil:
		s.observeServiceTime(time.Since(start))
		if !job.telemetry {
			s.cache.put(job.digest, &cacheEntry{report: rep, events: job.eventLog(), jobID: job.id})
		}
		s.counter(func(t *telemetry.Sink) { t.Inc(telemetry.ServerJobsCompleted) })
		s.sealJob(job, StatusDone, rep, "")
	case errors.As(err, &pe):
		job.setStack(pe.stack)
		s.counter(func(t *telemetry.Sink) {
			t.Inc(telemetry.ServerPanics)
			t.Inc(telemetry.ServerJobsFailed)
		})
		s.sealJob(job, StatusFailed, rep, pe.Error())
	case errors.Is(err, context.DeadlineExceeded) && job.ctx.Err() == nil:
		// The per-job deadline fired (the client's own context is still live);
		// the report keeps every completed cell, with the interrupted cell
		// marked TIMEOUT by the scenario layer.
		s.counter(func(t *telemetry.Sink) { t.Inc(telemetry.ServerTimeouts) })
		s.sealJob(job, StatusTimeout, rep, fmt.Sprintf("deadline exceeded after %s", deadline))
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.counter(func(t *telemetry.Sink) { t.Inc(telemetry.ServerJobsCancelled) })
		s.sealJob(job, StatusCanceled, rep, err.Error())
	default:
		s.counter(func(t *telemetry.Sink) { t.Inc(telemetry.ServerJobsFailed) })
		s.sealJob(job, StatusFailed, rep, err.Error())
	}
}

// Stats is the /v1/stats payload: job-lifecycle counters plus the cache and
// topology-pool snapshots.
type Stats struct {
	Jobs     map[string]int   `json:"jobs"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Cache    CacheStats       `json:"cache"`
	Topo     TopoStats        `json:"topo"`
}

// StatsSnapshot assembles the current server statistics.
func (s *Server) StatsSnapshot() Stats {
	st := Stats{
		Jobs:     make(map[string]int),
		Counters: s.Counters(),
		Cache:    s.cache.stats(),
		Topo:     s.pool.Stats(),
	}
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	for _, j := range jobs {
		st.Jobs[string(j.Info(false).Status)]++
	}
	return st
}
