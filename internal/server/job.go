package server

import (
	"context"
	"sync"

	"mccmesh/internal/scenario"
)

// Status is a job's lifecycle state.
type Status string

const (
	// StatusQueued: accepted and waiting for a worker slot.
	StatusQueued Status = "queued"
	// StatusRunning: executing on the worker pool.
	StatusRunning Status = "running"
	// StatusDone: finished with a report (possibly straight from the cache).
	StatusDone Status = "done"
	// StatusFailed: the run returned a non-cancellation error.
	StatusFailed Status = "failed"
	// StatusCanceled: cancelled by the client (context.Canceled surfaced from
	// the run, or cancelled while still queued).
	StatusCanceled Status = "canceled"
	// StatusTimeout: the job's wall-clock deadline (spec timeout field or the
	// server's -job-timeout default/cap) expired; the report keeps the
	// completed cells with the interrupted cell marked TIMEOUT.
	StatusTimeout Status = "timeout"
	// StatusEvicted: sealed while still queued by a graceful drain — the job
	// never ran and the client should resubmit.
	StatusEvicted Status = "evicted"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	switch s {
	case StatusDone, StatusFailed, StatusCanceled, StatusTimeout, StatusEvicted:
		return true
	}
	return false
}

// JobEvent is the wire form of one scenario progress event, streamed over
// /v1/jobs/{id}/events as NDJSON or SSE. It mirrors scenario.Event field for
// field; the stream is workers-invariant because the underlying observer
// stream is (pinned by the scenario package's tests).
type JobEvent struct {
	Measure  string           `json:"measure"`
	Cell     int              `json:"cell"`
	Total    int              `json:"total"`
	Label    string           `json:"label"`
	Done     bool             `json:"done,omitempty"`
	Row      []string         `json:"row,omitempty"`
	Progress bool             `json:"progress,omitempty"`
	Trial    int              `json:"trial,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// wireEvent converts a scenario observer event to its wire form.
func wireEvent(ev scenario.Event) JobEvent {
	return JobEvent{
		Measure: ev.Measure, Cell: ev.Cell, Total: ev.Total, Label: ev.Label,
		Done: ev.Done, Row: ev.Row,
		Progress: ev.Progress, Trial: ev.Trial, Counters: ev.Counters,
	}
}

// Job is one submitted scenario execution. The immutable identity fields are
// set at submit time; everything behind mu changes as the job advances and is
// read by the HTTP handlers.
type Job struct {
	id     string
	digest string
	topo   string
	name   string // spec name, for listings
	sc     *scenario.Scenario
	ctx    context.Context // the run context; cancel aborts it
	cancel context.CancelFunc
	// telemetry marks a run with counters enabled; such jobs bypass the
	// result cache (telemetry changes report content, not the digest).
	telemetry bool

	mu      sync.Mutex
	status  Status
	cached  bool
	errText string
	stack   string // captured goroutine stack of a recovered panic
	report  *scenario.Report
	events  []JobEvent
	// changed is closed and replaced whenever events grow or the status turns
	// terminal, waking every streaming subscriber without a subscriber list.
	changed chan struct{}
}

func newJob(id string, sc *scenario.Scenario, cancel context.CancelFunc) *Job {
	spec := sc.Spec()
	return &Job{
		id: id, digest: spec.Digest(), topo: spec.TopoKey(), name: spec.Name,
		sc: sc, cancel: cancel,
		status: StatusQueued, changed: make(chan struct{}),
	}
}

// wakeLocked signals every waiter; callers hold j.mu.
func (j *Job) wakeLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// appendEvent records one observer event (called synchronously from the
// measure goroutine via the installed observer).
func (j *Job) appendEvent(ev scenario.Event) {
	j.mu.Lock()
	j.events = append(j.events, wireEvent(ev))
	j.wakeLocked()
	j.mu.Unlock()
}

// setStatus transitions the job; terminal transitions wake subscribers.
func (j *Job) setStatus(st Status) {
	j.mu.Lock()
	j.status = st
	j.wakeLocked()
	j.mu.Unlock()
}

// finish seals the job with its outcome.
func (j *Job) finish(st Status, rep *scenario.Report, errText string) {
	j.mu.Lock()
	j.status = st
	j.report = rep
	j.errText = errText
	j.wakeLocked()
	j.mu.Unlock()
}

// setStack records the captured stack of a recovered panic.
func (j *Job) setStack(stack string) {
	j.mu.Lock()
	j.stack = stack
	j.mu.Unlock()
}

// sealQueued seals a still-queued job as st. sideEffects — the journal
// append and the lifecycle counter — run under the job lock before the new
// state becomes visible, so no reader sees a terminal state whose side effects
// have not landed yet. It refuses once the job has been claimed or sealed, and
// reports whether it sealed.
func (j *Job) sealQueued(st Status, errText string, sideEffects func()) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	sideEffects()
	j.status = st
	j.errText = errText
	j.wakeLocked()
	return true
}

// fillCached seals a job as answered from the result cache: the report and
// the replayed event log come from the job that originally computed them.
func (j *Job) fillCached(rep *scenario.Report, events []JobEvent) {
	j.mu.Lock()
	j.status = StatusDone
	j.cached = true
	j.report = rep
	j.events = events
	j.wakeLocked()
	j.mu.Unlock()
}

// Cancel asks the job to stop: a queued job is sealed immediately, after
// sideEffects have run (see sealQueued); a running one has its context
// cancelled (the run surfaces context.Canceled and the worker seals it).
// Terminal jobs are left untouched. It reports whether the call changed
// anything.
func (j *Job) Cancel(sideEffects func()) bool {
	if j.sealQueued(StatusCanceled, context.Canceled.Error(), sideEffects) {
		j.cancel()
		return true
	}
	j.mu.Lock()
	running := j.status == StatusRunning
	j.mu.Unlock()
	if running {
		j.cancel()
	}
	return running
}

// claim moves a queued job to running; a job cancelled while queued refuses.
func (j *Job) claim() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	j.wakeLocked()
	return true
}

// eventsFrom returns the events at index >= from, whether the job is
// terminal, and — when there is nothing new yet — a channel that closes on
// the next change. Exactly one of (progress, wait) is meaningful: a non-nil
// wait means "nothing new, block on this".
func (j *Job) eventsFrom(from int) (evs []JobEvent, terminal bool, wait <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.events) {
		evs = make([]JobEvent, len(j.events)-from)
		copy(evs, j.events[from:])
		return evs, j.status.Terminal(), nil
	}
	if j.status.Terminal() {
		return nil, true, nil
	}
	return nil, false, j.changed
}

// Info is the job's JSON summary (list and detail endpoints). The report is
// attached only for terminal jobs and only when withReport is set.
func (j *Job) Info(withReport bool) JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID: j.id, Name: j.name, Digest: j.digest, TopoKey: j.topo,
		Status: j.status, Cached: j.cached, Error: j.errText, Stack: j.stack,
		Events: len(j.events),
	}
	if withReport && j.status.Terminal() {
		info.Report = j.report
	}
	return info
}

// eventLog returns a copy of the event log (for cache insertion).
func (j *Job) eventLog() []JobEvent {
	j.mu.Lock()
	defer j.mu.Unlock()
	evs := make([]JobEvent, len(j.events))
	copy(evs, j.events)
	return evs
}

// JobInfo is the wire form of a job's state.
type JobInfo struct {
	// ID addresses the job (/v1/jobs/{id}); Name echoes the spec's name.
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	// Digest is the canonical spec digest (the result-cache key and the ETag
	// of the job's report); TopoKey hashes the mesh/fault configuration that
	// selects the shared-topology prototype.
	Digest  string `json:"digest"`
	TopoKey string `json:"topo"`
	// Status is the lifecycle state; Cached marks a submission answered from
	// the result cache without recompute.
	Status Status `json:"status"`
	Cached bool   `json:"cached,omitempty"`
	// Error carries the failure (or cancellation) message of a terminal job.
	Error string `json:"error,omitempty"`
	// Stack is the captured goroutine stack of a job failed by a recovered
	// panic — the daemon survives; the evidence lands here.
	Stack string `json:"stack,omitempty"`
	// Events is the current event-log length (what /events would replay).
	Events int `json:"events"`
	// Report is the final structured report, attached on detail requests once
	// the job is terminal.
	Report *scenario.Report `json:"report,omitempty"`
}
