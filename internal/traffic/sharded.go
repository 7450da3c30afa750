package traffic

import (
	"fmt"

	"mccmesh/internal/mesh"
	"mccmesh/internal/simnet"
	"mccmesh/internal/telemetry"
)

// Shard selection of one trial. A trial runs one run state per slab of
// mesh.SlabPartition: a single state on a plain simnet.Network when the trial
// does not shard, one state per slab — each with its own packet pool, Result
// accumulators, provider cache and information-model instance, over a shared
// node RNG table — on a simnet.ShardedNetwork driving them under the per-tick
// barrier when it does. The trial coordinator (engine.go) is the same either
// way; a sequential run is the partition with one part. Bit-identical parity
// between the two follows from three facts:
//
//   - every stream of randomness is per-node (injection gaps, destinations)
//     or stateless (the Seeded policy), and a node lives in exactly one
//     shard, so each stream is consumed in the same order at any shard count;
//   - the measured aggregates (counters, latency/hops histograms, per-phase
//     tallies) are order-independent sums over per-packet facts that depend
//     only on per-node event order, which the barrier protocol preserves;
//   - churn and fault callbacks run on the coordinator at the tick barrier,
//     before that tick's deliveries — the same "control first" order the
//     single queue gives setup-enqueued control events — so every shard
//     observes fault state change at identical points of the timeline.
//
// What is NOT preserved: packet ids (per-shard counters; only traces read
// them, and tracing pins the single state) and the queue-shape telemetry
// counters (each shard has its own calendar; sums differ from one big one).

// network is the event loop under a trial: *simnet.Network for one state,
// *simnet.ShardedNetwork for several.
type network interface {
	Kind(name string) simnet.KindID
	At(t simnet.Time, fn func())
	Now() simnet.Time
	ContextOf(id int32) *simnet.Context
	Run() (simnet.Stats, error)
}

// partition picks the trial's slabs and the information model each routes
// against. With Options.Shards > 1, a ShardModel and tracing off, a mesh that
// splits at least two ways gets one slab per shard and one ShardModel call per
// slab; anything else runs as the single slab routed on e.model.
func (e *Engine) partition() ([]InfoModel, []mesh.IDRange, error) {
	if e.opts.Shards > 1 && e.opts.ShardModel != nil && e.opts.TraceEvery == 0 {
		if slabs := mesh.SlabPartition(e.mesh, e.opts.Shards); len(slabs) >= 2 {
			models := make([]InfoModel, len(slabs))
			for s := range slabs {
				model, err := e.opts.ShardModel()
				if err != nil {
					return nil, nil, fmt.Errorf("traffic: building shard %d information model: %w", s, err)
				}
				models[s] = model
			}
			return models, slabs, nil
		}
	}
	return []InfoModel{e.model}, mesh.SlabPartition(e.mesh, 1), nil
}

// newNetwork builds the event loop over the trial's states.
func (tr *trial) newNetwork() network {
	opts := tr.e.opts
	if len(tr.states) == 1 {
		st := tr.states[0]
		return simnet.New(tr.e.mesh, st, simnet.Options{LinkDelay: opts.LinkDelay, MaxEvents: opts.MaxEvents, Telemetry: st.tel})
	}
	handlers := make([]simnet.Handler, len(tr.states))
	var sinks []*telemetry.Sink
	if tr.states[0].tel != nil {
		sinks = make([]*telemetry.Sink, len(tr.states))
	}
	for s, st := range tr.states {
		handlers[s] = st
		if sinks != nil {
			sinks[s] = st.tel
		}
	}
	return simnet.NewSharded(tr.e.mesh, handlers, tr.slabs, simnet.ShardedOptions{
		LinkDelay: opts.LinkDelay,
		MaxEvents: opts.MaxEvents,
		Telemetry: sinks,
		// A packet crossing a slab boundary moves between pools at the
		// barrier: copy the value into the destination pool, release the
		// source slot. Single-threaded on the coordinator.
		MigrateRef: func(from, to int, kind simnet.KindID, ref int32) int32 {
			src, dst := tr.states[from], tr.states[to]
			nref := dst.alloc()
			dst.pool[nref] = src.pool[ref]
			src.release(ref)
			return nref
		},
	})
}
