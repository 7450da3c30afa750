// Package telemetry is the instrumentation layer of the simulator stack: a
// fixed-slot counter registry (dense IDs, one int64 slice per engine instance,
// no atomics — the same index-first discipline as the event core) plus a
// ring-buffer sink for sampled packet traces.
//
// The layer is zero-overhead when disabled: every Sink method is safe on a nil
// receiver and compiles to a single predicted nil-check branch, so
// instrumented hot paths cost nothing until a caller actually installs a sink.
// Sinks are deliberately not goroutine-safe — each trial owns its own Sink,
// exactly as each trial owns its own mesh and engine, and the sweep layer
// merges per-trial sinks in trial order so the totals are bit-identical at any
// worker count.
package telemetry

import (
	"encoding/json"
	"fmt"

	"mccmesh/internal/rng"
)

// CounterID is the dense index of one counter in a Sink. The IDs are a closed
// set: instrumentation points across simnet, routing, labeling and traffic
// address their slot directly, with no registration step and no hashing.
type CounterID uint8

// The counter registry. Gauges (max-tracked values) are marked as such; all
// other slots are monotone counts.
const (
	// SimHeapEvents counts events pushed to the calendar queue's far-future
	// binary-heap fallback (distant timers; control callbacks never enter
	// the calendar).
	SimHeapEvents CounterID = iota
	// SimHeapMigrations counts heap→ring migrations as the clock advances.
	SimHeapMigrations
	// SimBucketReuses counts per-tick bucket arrays recycled from the drained
	// free-list (event-pool recycling; a low count next to a high event count
	// means the ring is allocating fresh buckets).
	SimBucketReuses
	// SimBucketPeak is a gauge: the maximum per-tick bucket occupancy seen.
	SimBucketPeak
	// SimBucketStoragePeak is a gauge: the peak retained bucket storage of
	// the calendar queue (arena chunks plus big bucket arrays), in events.
	SimBucketStoragePeak

	// FieldColdBuilds counts octant sweeps of a destination's exception
	// table, each for an octant not built for it before.
	FieldColdBuilds
	// FieldRebuilds always reads 0: a fault change patches the exception
	// lists in place and drops no octant, so none is swept again. The slot
	// stays while the benchmark ledger reads it.
	FieldRebuilds
	// FieldEvictions always reads 0: the sparse exception tables keep every
	// destination. The slot stays while the benchmark ledger reads it.
	FieldEvictions
	// FieldEpochBumps counts field-table invalidations (fault churn), each
	// patching the exception lists of the destinations whose built octants
	// hold a changed cell.
	FieldEpochBumps
	// DecisionHits counts per-hop routing decisions answered without a
	// sweep: from a built octant of the destination (one slot read, the
	// obstacle bit of each forward neighbour and, when the destination has
	// exceptions, a binary search of its list), or at once when the
	// destination is an obstacle or the hop starts at it.
	DecisionHits
	// DecisionBuilds counts decisions that first swept the octant of the
	// destination holding the hop's node, because no built one held it;
	// each pairs with one cold build.
	DecisionBuilds
	// FieldStoragePeak is a gauge: the peak bytes of one field provider's
	// slot table plus its live exceptions, the table's whole footprint
	// but for arena garbage compaction reclaims. It checks that the
	// exception tables stay a few bytes per destination with no eviction.
	FieldStoragePeak

	// RelabelAddNodes totals the label promotions performed by incremental
	// AddFaults fixpoints (the relabelled-set size of fault injections).
	RelabelAddNodes
	// RelabelRemoveNodes totals the nodes demoted by incremental RemoveFaults
	// wavefronts (the relabelled-set size of repairs).
	RelabelRemoveNodes

	// PacketsInjected / PacketsDelivered / PacketsStuck / PacketsLost mirror
	// the engine's packet accounting per trial.
	PacketsInjected
	PacketsDelivered
	PacketsStuck
	PacketsLost

	// ChurnFailures / ChurnRepairs count the fault-churn timeline events;
	// ChurnFailedNodes / ChurnRepairedNodes the nodes they touched.
	ChurnFailures
	ChurnRepairs
	ChurnFailedNodes
	ChurnRepairedNodes

	// TracesSampled counts packets selected for hop tracing; TracesEvicted
	// counts sampled traces overwritten in the ring before they finished.
	TracesSampled
	TracesEvicted

	// ServerJobsSubmitted / ServerJobsCompleted / ServerJobsFailed /
	// ServerJobsCancelled count the job lifecycle of the scenario-execution
	// daemon (`mcc serve`); ServerCacheHits counts submissions answered from
	// the spec-digest result cache without recompute.
	ServerJobsSubmitted
	ServerJobsCompleted
	ServerJobsFailed
	ServerJobsCancelled
	ServerCacheHits
	// ServerQueueDepth is a gauge: the maximum number of jobs waiting for a
	// worker at any point of the server's lifetime.
	ServerQueueDepth
	// ServerTopoClones counts meshes cloned from the shared-topology pool's
	// immutable prototypes (per-trial mutable copies over shared tables).
	ServerTopoClones
	// ServerPanics counts panics recovered at the job-runner boundary: each
	// one failed its job with a captured stack instead of killing the daemon.
	ServerPanics
	// ServerTimeouts counts jobs sealed TIMEOUT by their wall-clock deadline.
	ServerTimeouts
	// ServerRetriesObserved counts submissions that announced themselves as
	// client retries (the X-Mcc-Retry header `mcc submit -retries` sends).
	ServerRetriesObserved
	// ServerJobsReplayed counts jobs resubmitted from the crash-safe journal
	// on daemon restart (`mcc serve -state`).
	ServerJobsReplayed
	// ServerJobsEvicted counts queued jobs sealed EVICTED by a graceful drain
	// so their clients could resubmit elsewhere.
	ServerJobsEvicted

	// NumCounters is the Sink slot count, not a counter.
	NumCounters
)

// counterNames are the stable external names, indexed by CounterID; they key
// every JSON snapshot and counter table.
var counterNames = [NumCounters]string{
	SimHeapEvents:        "simnet.heap_events",
	SimHeapMigrations:    "simnet.heap_migrations",
	SimBucketReuses:      "simnet.bucket_reuses",
	SimBucketPeak:        "simnet.bucket_peak",
	SimBucketStoragePeak: "simnet.bucket_storage_peak",
	FieldColdBuilds:      "routing.field_cold_builds",
	FieldRebuilds:        "routing.field_rebuilds",
	FieldEvictions:       "routing.field_evictions",
	FieldEpochBumps:      "routing.epoch_bumps",
	DecisionHits:         "routing.decision_hits",
	DecisionBuilds:       "routing.decision_builds",
	FieldStoragePeak:     "routing.field_storage_peak",
	RelabelAddNodes:      "labeling.relabel_add_nodes",
	RelabelRemoveNodes:   "labeling.relabel_remove_nodes",
	PacketsInjected:      "traffic.injected",
	PacketsDelivered:     "traffic.delivered",
	PacketsStuck:         "traffic.stuck",
	PacketsLost:          "traffic.lost",
	ChurnFailures:        "churn.failures",
	ChurnRepairs:         "churn.repairs",
	ChurnFailedNodes:     "churn.failed_nodes",
	ChurnRepairedNodes:   "churn.repaired_nodes",
	TracesSampled:        "trace.sampled",
	TracesEvicted:        "trace.evicted",
	ServerJobsSubmitted:  "server.jobs_submitted",
	ServerJobsCompleted:  "server.jobs_completed",
	ServerJobsFailed:     "server.jobs_failed",
	ServerJobsCancelled:  "server.jobs_cancelled",
	ServerCacheHits:      "server.cache_hits",
	ServerQueueDepth:     "server.queue_depth",
	ServerTopoClones:     "server.topo_clones",

	ServerPanics:          "server.panics",
	ServerTimeouts:        "server.timeouts",
	ServerRetriesObserved: "server.retries_observed",
	ServerJobsReplayed:    "server.jobs_replayed",
	ServerJobsEvicted:     "server.jobs_evicted",
}

// String returns the stable external name of the counter.
func (id CounterID) String() string {
	if id < NumCounters {
		return counterNames[id]
	}
	return "telemetry.unknown"
}

// gauge reports whether the slot merges by max instead of by sum.
func (id CounterID) gauge() bool {
	return id == SimBucketPeak || id == SimBucketStoragePeak || id == FieldStoragePeak || id == ServerQueueDepth
}

// Sink is one trial's counter slice. The zero value is ready to use; a nil
// *Sink is the disabled state — every method nil-checks and returns, so
// instrumented code never guards its calls.
type Sink struct {
	c [NumCounters]int64
}

// NewSink returns an empty enabled sink.
func NewSink() *Sink { return &Sink{} }

// Inc adds one to a counter. No-op on a nil sink.
func (s *Sink) Inc(id CounterID) {
	if s == nil {
		return
	}
	s.c[id]++
}

// Add adds delta to a counter. No-op on a nil sink.
func (s *Sink) Add(id CounterID, delta int64) {
	if s == nil {
		return
	}
	s.c[id] += delta
}

// Max raises a gauge to v when v exceeds it. No-op on a nil sink.
func (s *Sink) Max(id CounterID, v int64) {
	if s == nil {
		return
	}
	if v > s.c[id] {
		s.c[id] = v
	}
}

// Get returns a counter's value; zero on a nil sink.
func (s *Sink) Get(id CounterID) int64 {
	if s == nil {
		return 0
	}
	return s.c[id]
}

// Merge folds another sink into this one: counts sum, gauges take the max.
// No-op when either side is nil.
func (s *Sink) Merge(other *Sink) {
	if s == nil || other == nil {
		return
	}
	for id := CounterID(0); id < NumCounters; id++ {
		if id.gauge() {
			if other.c[id] > s.c[id] {
				s.c[id] = other.c[id]
			}
		} else {
			s.c[id] += other.c[id]
		}
	}
}

// Snapshot returns the non-zero counters keyed by their stable names — the
// JSON form of a sink. Nil on a nil or all-zero sink.
func (s *Sink) Snapshot() map[string]int64 {
	if s == nil {
		return nil
	}
	var out map[string]int64
	for id := CounterID(0); id < NumCounters; id++ {
		if s.c[id] != 0 {
			if out == nil {
				out = make(map[string]int64, 8)
			}
			out[counterNames[id]] = s.c[id]
		}
	}
	return out
}

// Instrumentable is implemented by components that can thread a sink through
// to their internals (models hand it to their labellings and providers, the
// engine hands it to the simulator). Passing nil detaches instrumentation.
type Instrumentable interface {
	SetTelemetry(*Sink)
}

// HopSource classifies where one forwarding decision came from.
type HopSource uint8

const (
	// HopDirect is a decision that needed no reachability field (stateless
	// providers, label lookups).
	HopDirect HopSource = iota
	// HopColdBuild swept an octant of the destination's exception table
	// for the decision.
	HopColdBuild
	// HopDecisionHit answered the whole hop from the destination's built
	// exception table, with no sweep.
	HopDecisionHit
)

// String returns the stable external name of the hop source.
func (h HopSource) String() string {
	switch h {
	case HopColdBuild:
		return "cold-build"
	case HopDecisionHit:
		return "decision-hit"
	default:
		return "direct"
	}
}

// MarshalJSON encodes the hop source as its name.
func (h HopSource) MarshalJSON() ([]byte, error) {
	return []byte(`"` + h.String() + `"`), nil
}

// UnmarshalJSON decodes a hop-source name (the MarshalJSON inverse, so dumped
// traces can be read back by analysis tooling).
func (h *HopSource) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	for _, s := range []HopSource{HopDirect, HopColdBuild, HopDecisionHit} {
		if s.String() == name {
			*h = s
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown hop source %q", name)
}

// Trace outcome statuses.
const (
	StatusDelivered = "delivered"
	StatusStuck     = "stuck"
	StatusLost      = "lost"
)

// Hop is one forwarding decision of a traced packet: the node that made it
// (dense mesh ID) and where the decision came from.
type Hop struct {
	Node   int32     `json:"node"`
	Source HopSource `json:"source"`
}

// Trace is the recorded life of one sampled packet. Node identities are dense
// mesh IDs; times are simulated ticks. Deliver is -1 when the packet never
// reached its destination (Status says why).
type Trace struct {
	Packet  int    `json:"packet"`
	Src     int32  `json:"src"`
	Dst     int32  `json:"dst"`
	Inject  int64  `json:"inject"`
	Deliver int64  `json:"deliver"`
	Status  string `json:"status"`
	Hops    []Hop  `json:"hops"`
}

// TraceSink records the hop sequence of a deterministic 1-in-N packet sample
// into a fixed ring: the most recent `capacity` sampled packets survive, older
// unfinished ones are counted as evicted. Sampling is keyed off a derived rng
// stream, not a shared counter, so the sample — and with it every recorded
// trace — is bit-identical at any worker count.
type TraceSink struct {
	key   uint64
	every uint64
	ring  []Trace
	next  int
	sink  *Sink
}

// NewTraceSink returns a trace sink sampling one packet in every (by packet
// id, keyed by key) with room for capacity traces. every < 1 is clamped to 1
// (trace everything); capacity < 1 to 1.
func NewTraceSink(key uint64, every, capacity int, sink *Sink) *TraceSink {
	if every < 1 {
		every = 1
	}
	if capacity < 1 {
		capacity = 1
	}
	return &TraceSink{key: key, every: uint64(every), ring: make([]Trace, capacity), sink: sink}
}

// Sampled reports whether the packet with the given id is in the sample. The
// decision is a pure function of (key, id). Safe on a nil sink (false).
func (t *TraceSink) Sampled(packet int) bool {
	if t == nil {
		return false
	}
	return rng.Derive(t.key, uint64(packet))%t.every == 0
}

// Begin opens a trace slot for a sampled packet and returns it. The slot must
// be carried alongside the packet and passed back to Hop/Finish together with
// the packet id — the ring may recycle the slot for a newer packet, and the id
// check keeps a stale holder from corrupting the newer trace.
func (t *TraceSink) Begin(packet int, src, dst int32, inject int64) int32 {
	slot := t.next % len(t.ring)
	tr := &t.ring[slot]
	if tr.Hops != nil && tr.Status == "" {
		t.sink.Inc(TracesEvicted)
	}
	hops := tr.Hops[:0]
	if hops == nil {
		hops = make([]Hop, 0, 16)
	}
	*tr = Trace{Packet: packet, Src: src, Dst: dst, Inject: inject, Deliver: -1, Hops: hops}
	t.next++
	t.sink.Inc(TracesSampled)
	return int32(slot)
}

// Hop appends one forwarding decision to an open trace. Stale slots (recycled
// for a newer packet) are ignored.
func (t *TraceSink) Hop(slot int32, packet int, node int32, src HopSource) {
	tr := &t.ring[slot]
	if tr.Packet != packet {
		return
	}
	tr.Hops = append(tr.Hops, Hop{Node: node, Source: src})
}

// Finish closes a trace with its outcome. deliver is the delivery tick, or -1
// for packets that never arrived. Stale slots are ignored.
func (t *TraceSink) Finish(slot int32, packet int, deliver int64, status string) {
	tr := &t.ring[slot]
	if tr.Packet != packet {
		return
	}
	tr.Deliver = deliver
	tr.Status = status
}

// Close marks every still-open trace as lost (its packet was dropped by a
// dying node, or the ring outlived the run). Safe on a nil sink.
func (t *TraceSink) Close() {
	if t == nil {
		return
	}
	for i := range t.ring {
		if t.ring[i].Hops != nil && t.ring[i].Status == "" {
			t.ring[i].Status = StatusLost
		}
	}
}

// Traces returns the recorded traces in packet-id order (sampled packets
// begin in id order and the ring preserves insertion order across wraps).
// Safe on a nil sink (nil).
func (t *TraceSink) Traces() []Trace {
	if t == nil {
		return nil
	}
	out := make([]Trace, 0, len(t.ring))
	start := 0
	if t.next > len(t.ring) {
		start = t.next % len(t.ring)
	}
	for i := 0; i < len(t.ring); i++ {
		tr := t.ring[(start+i)%len(t.ring)]
		if tr.Hops != nil {
			out = append(out, tr)
		}
	}
	return out
}
