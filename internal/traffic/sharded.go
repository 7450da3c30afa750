package traffic

import (
	"fmt"

	"mccmesh/internal/mesh"
	"mccmesh/internal/simnet"
)

// Shard selection of one trial. A trial runs one run state per slab of
// mesh.SlabPartition on one simnet.Network: a single state when the trial
// does not shard, one state per slab — each with its own packet pool, Result
// accumulators, provider cache and information-model instance, over a shared
// node RNG table — when it does. The trial coordinator (engine.go) and the
// event loop are the same either way; a sequential run is the partition with
// one part, which the network runs inline, with no goroutines. Bit-identical
// parity across slab counts follows from three facts:
//
//   - every stream of randomness is per-node (injection gaps, destinations)
//     or stateless (the Seeded policy), and a node lives in exactly one
//     slab, so each stream is consumed in the same order at any slab count;
//   - the measured aggregates (counters, latency/hops histograms, per-phase
//     tallies) are order-independent sums over per-packet facts that depend
//     only on per-node event order, which the barrier protocol preserves;
//   - churn and fault callbacks are simnet control callbacks: they run on the
//     coordinator first in their tick, before any of its deliveries, so every
//     slab observes fault state change at identical points of the timeline.
//
// What is NOT preserved: packet ids (per-slab counters; only traces read
// them, and tracing pins the single state) and the queue-shape telemetry
// counters (each slab has its own calendar; sums differ from one big one).

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

// newNetwork builds the event loop over the trial's states, one slab each.
func (tr *trial) newNetwork(slabs []mesh.IDRange) *simnet.Network {
	handlers := make([]simnet.Handler, len(tr.states))
	for s, st := range tr.states {
		handlers[s] = st
	}
	return simnet.NewSlabs(tr.e.mesh, handlers, slabs, simnet.Options{
		LinkDelay: tr.e.opts.LinkDelay,
		MaxEvents: tr.e.opts.MaxEvents,
		// The slabs' queue counters land here when the run ends; finish
		// merges the other states' sinks into this one too.
		Telemetry: tr.states[0].tel,
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
