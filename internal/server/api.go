package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"mccmesh/internal/scenario"
	"mccmesh/internal/telemetry"
)

// maxSpecBytes bounds a submitted spec document; real specs are a few KB.
const maxSpecBytes = 4 << 20

// routes builds the API mux. Method and path-wildcard matching come from the
// standard library's pattern syntax — no routing dependency.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

// apiError is the uniform structured error payload: every 4xx/5xx body
// carries the message, the HTTP status it rode in on, and — for backpressure
// rejections — the same retry hint as the Retry-After header, so clients
// parsing only the body still see it.
type apiError struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
	// RetryAfterSec mirrors the Retry-After header on 503 responses: the
	// server's estimate (from observed job service times and queue pressure)
	// of when a resubmission could be admitted.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client disconnects surface on the conn
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...), Status: status})
}

// writeUnavailable rejects with 503, a Retry-After header and the mirrored
// body field — the graceful-degradation contract for a full queue or a
// draining server.
func writeUnavailable(w http.ResponseWriter, retryAfterSec int, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSec))
	writeJSON(w, http.StatusServiceUnavailable, apiError{
		Error:         fmt.Sprintf(format, args...),
		Status:        http.StatusServiceUnavailable,
		RetryAfterSec: retryAfterSec,
	})
}

// handleSubmit accepts a scenario spec (the exact JSON `mcc run -spec`
// reads), validates it, and either answers from the result cache (200,
// X-Cache: hit) or enqueues a job (202). `?telemetry=1` enables per-trial
// counters for the run — such jobs bypass the cache in both directions.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if n, err := strconv.Atoi(r.Header.Get("X-Mcc-Retry")); err == nil && n > 0 {
		// A backoff-aware client re-sending after a 503; count it so the
		// operator can see retry pressure in /v1/stats.
		s.counter(func(t *telemetry.Sink) { t.Inc(telemetry.ServerRetriesObserved) })
	}
	body := http.MaxBytesReader(w, r.Body, maxSpecBytes)
	sc, err := scenario.Load(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	withTelemetry := false
	if v := r.URL.Query().Get("telemetry"); v != "" {
		withTelemetry, err = strconv.ParseBool(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "telemetry: %v", err)
			return
		}
	}
	if withTelemetry {
		sc.EnableTelemetry()
	}
	if lim := s.cfg.MaxShards; lim > 0 {
		// Clamp, don't reject: shards are an execution knob (digest-excluded),
		// so the clamped job still answers the submitted spec exactly.
		if spec := sc.Spec(); spec.ShardCount() > lim {
			sc.SetShards(lim)
		}
	}
	job, err := s.submit(sc, withTelemetry)
	if err != nil {
		writeUnavailable(w, s.retryAfterSeconds(), "%v", err)
		return
	}
	info := job.Info(false)
	w.Header().Set("ETag", etagOf(info.Digest))
	w.Header().Set("Location", "/v1/jobs/"+info.ID)
	if info.Cached {
		w.Header().Set("X-Cache", "hit")
		writeJSON(w, http.StatusOK, info)
		return
	}
	w.Header().Set("X-Cache", "miss")
	writeJSON(w, http.StatusAccepted, info)
}

// handleList returns every job's summary in submission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.list()})
}

// etagOf wraps the spec digest as a strong validator: the digest names the
// result content (reports are deterministic per digest), which is exactly the
// ETag contract.
func etagOf(digest string) string { return `"` + digest + `"` }

// handleGet returns one job's state; terminal jobs carry the report inline.
// If-None-Match against the digest ETag short-circuits with 304 once the job
// is done.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	info := job.Info(true)
	etag := etagOf(info.Digest)
	w.Header().Set("ETag", etag)
	if info.Status == StatusDone && r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleCancel cancels a queued or running job (idempotent on terminal ones).
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	// A job sealed while still queued is never run by a worker, so its seal
	// is journaled and counted here, before the CANCELED state turns visible.
	changed := job.Cancel(func() {
		s.journalSeal(job.id, string(StatusCanceled), context.Canceled.Error())
		s.counter(func(t *telemetry.Sink) { t.Inc(telemetry.ServerJobsCancelled) })
	})
	info := job.Info(false)
	writeJSON(w, http.StatusOK, map[string]any{
		"id": r.PathValue("id"), "cancelled": changed, "status": info.Status,
	})
}

// handleEvents streams the job's progress events from the beginning: the
// recorded log replays first, then live events follow until the job turns
// terminal or the client disconnects. The default framing is NDJSON (one
// event object per line); `Accept: text/event-stream` selects SSE, where each
// event arrives as a `data:` line and the stream ends with `event: done`.
// `?from=N` resumes after the first N events.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "from: want a non-negative integer, got %q", v)
			return
		}
		from = n
	}
	sse := r.Header.Get("Accept") == "text/event-stream"
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc := json.NewEncoder(w)
	for {
		evs, terminal, wait := job.eventsFrom(from)
		for _, ev := range evs {
			if sse {
				fmt.Fprint(w, "data: ")
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if sse {
				fmt.Fprint(w, "\n")
			}
		}
		from += len(evs)
		flush()
		if terminal {
			if sse {
				fmt.Fprintf(w, "event: done\ndata: %q\n\n", job.Info(false).Status)
				flush()
			}
			return
		}
		if wait != nil {
			select {
			case <-wait:
			case <-r.Context().Done():
				return
			}
		}
	}
}

// handleReport returns a terminal job's report. `?format=` selects the
// rendering: "json" (default) is the structured report, "text" is the exact
// bytes `mcc run -spec` prints for the same spec, "csv" the `-csv` form —
// both for byte-for-byte diffing against local runs.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	info := job.Info(true)
	if !info.Status.Terminal() {
		writeError(w, http.StatusConflict, "job %s is %s; report not ready", info.ID, info.Status)
		return
	}
	if info.Report == nil {
		writeError(w, http.StatusNotFound, "job %s (%s) produced no report", info.ID, info.Status)
		return
	}
	w.Header().Set("ETag", etagOf(info.Digest))
	if info.Cached {
		w.Header().Set("X-Cache", "hit")
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, info.Report)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, info.Report.Table.Render())
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		fmt.Fprint(w, info.Report.Table.CSV())
	default:
		writeError(w, http.StatusBadRequest, "format: want json, text or csv, got %q", format)
	}
}

// handleHealth is the liveness probe.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleStats reports the lifecycle counters, cache and topology-pool state.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}
