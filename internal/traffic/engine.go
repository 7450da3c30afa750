package traffic

import (
	"fmt"
	"math"

	"mccmesh/internal/fault"
	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
	"mccmesh/internal/rng"
	"mccmesh/internal/routing"
	"mccmesh/internal/simnet"
	"mccmesh/internal/stats"
	"mccmesh/internal/telemetry"
)

// Envelope kinds used by the engine.
const (
	kindInject = "inject"
	kindPacket = "pkt"
)

// FaultEvent injects additional faults at a fixed simulated time, modelling
// nodes dying under load. The injector draws from a deterministic per-event
// generator, so fault schedules do not perturb the traffic streams.
type FaultEvent struct {
	At     simnet.Time
	Inject fault.Injector
}

// Options configure one engine run.
type Options struct {
	// Rate is the injection probability per healthy node per tick, i.e. the
	// offered load. Inter-arrival gaps are geometric with this success rate.
	Rate float64
	// Warmup is the tick count before measurement starts; packets injected
	// during warmup are routed but not measured.
	Warmup simnet.Time
	// Window is the measurement duration. Injection stops at Warmup+Window
	// and the run drains the in-flight packets.
	Window simnet.Time
	// Policy picks among allowed forwarding directions. Defaults to a Seeded
	// policy derived from the run seed.
	Policy routing.Policy
	// LinkDelay and MaxEvents are passed to the simulator.
	LinkDelay simnet.Time
	MaxEvents int
	// Faults is the dynamic fault schedule (injections only, never repaired).
	Faults []FaultEvent
	// Timeline is the stochastic fault-churn process: failure groups arrive
	// and are later repaired while traffic is in flight. Fault information
	// flows through the models' incremental FaultApplier / FaultRepairer
	// paths, nodes stop injecting while they are down and resume on repair,
	// and the measurement window is split into phases at every churn event
	// (Result.Phases).
	Timeline *fault.Timeline
	// PatternParams parameterises a pattern resolved by name (e.g.
	// {"fraction": 0.2, "target": [5, 5, 5]} for hotspot); see the Patterns
	// registry for each pattern's schema. It is consumed by callers that
	// build the pattern for the engine — the facade's NewTrafficEngine and
	// the scenario runner — and ignored when an explicit Pattern value is
	// passed to NewEngine.
	PatternParams map[string]any
	// Telemetry enables the counter sink for this run: the engine creates a
	// telemetry.Sink, threads it through the information model, the routing
	// field caches and the simulator queue, and returns it in
	// Result.Telemetry. Off by default — the disabled instrumentation costs
	// one predicted nil-check branch per hook.
	Telemetry bool
	// TraceEvery samples one packet in every TraceEvery for full hop-by-hop
	// tracing (0 disables tracing). Sampling is keyed off the per-trial seed
	// and the packet id, so the sampled set — and the traces themselves — are
	// identical at any worker count. Implies Telemetry.
	TraceEvery int
	// TraceCap bounds the trace ring buffer (default 256); older traces are
	// evicted when it overflows.
	TraceCap int
	// Shards splits the trial spatially into up to Shards slab shards (see
	// mesh.SlabPartition), each owning its own event queue and packet pool,
	// synchronised conservatively at a per-tick barrier. The trial runs the
	// same coordinator at any shard count — one shard is simply the partition
	// with one part — and the measured results are bit-identical across
	// counts. 0 or 1 — the default — runs the single shard inline, with no
	// goroutines; so does tracing (TraceEvery > 0), because packet traces are
	// defined over the global delivery order a single queue provides, and so
	// does a mesh too thin to split two ways. Requires ShardModel.
	Shards int
	// ShardModel builds one information model instance per shard: model state
	// (labellings, routing field caches) is not concurrency-safe, so each
	// shard routes against a private copy. It is called exactly once per slab,
	// in slab order, and only when the trial actually splits into two or more
	// slabs; otherwise the trial routes on the engine's own model and never
	// calls it. When nil the engine runs a single shard.
	ShardModel func() (InfoModel, error)
}

// Result aggregates one engine run.
type Result struct {
	// Model, Pattern and Rate echo the run configuration.
	Model   string
	Pattern string
	Rate    float64
	// HealthyNodes is the healthy-node count at the start of the run (the
	// throughput normalisation base).
	HealthyNodes int
	// Warmup, Window and FinalTime describe the timeline; FinalTime includes
	// the post-horizon drain of in-flight packets.
	Warmup, Window, FinalTime simnet.Time
	// Offered counts injection attempts; Skipped those without a valid
	// destination; Injected the packets actually sent.
	Offered, Skipped, Injected int
	// Delivered, Stuck and Lost partition the injected packets: delivered to
	// their destination, stopped with no allowed forwarding direction, or
	// dropped because a node on their path (or their destination) died.
	Delivered, Stuck, Lost int
	// MeasuredInjected / MeasuredDelivered count the packets injected inside
	// the measurement window (and their deliveries, whenever they complete).
	MeasuredInjected, MeasuredDelivered int
	// Latency and Hops are histograms over the measured delivered packets, in
	// ticks and hops respectively.
	Latency stats.Histogram
	Hops    stats.Histogram
	// Events is the total number of simulator events processed.
	Events int
	// Failures and Repairs count the churn-timeline events that fired;
	// FailedNodes and RepairedNodes total the nodes they took down and
	// restored. All zero without Options.Timeline.
	Failures, Repairs          int
	FailedNodes, RepairedNodes int
	// Phases splits the measurement window at every churn event: per-phase
	// measured deliveries and latency, the per-phase resolution the churn
	// experiments read. Nil without Options.Timeline.
	Phases []PhaseStat
	// Err is non-nil when the simulator aborted the trial — today that means
	// the event budget ran out (errors.Is(Err, simnet.ErrEventBudget)). The
	// counters above cover the prefix that did run; sweep aggregation
	// (Collect) and the scenario report surface the failure per cell instead
	// of killing the process.
	Err error
	// Telemetry is the counter sink of the run, nil unless Options.Telemetry
	// (or tracing) was enabled.
	Telemetry *telemetry.Sink
	// Traces holds the sampled packet traces, nil unless Options.TraceEvery
	// was set.
	Traces []telemetry.Trace
}

// PhaseStat is the traffic measured between two consecutive churn events (or
// a churn event and a window edge): deliveries are assigned to the phase they
// complete in, so a phase shows the network as it was — post-failure
// degradation, post-repair recovery — at per-event resolution.
type PhaseStat struct {
	// Start and End bound the phase in simulated ticks; deliveries draining
	// after the measurement horizon land in the final phase.
	Start, End simnet.Time
	// Healthy is the healthy-node count at the phase start (the throughput
	// normalisation base of this phase).
	Healthy int
	// Delivered counts measured packets delivered inside the phase;
	// LatencySum totals their latencies in ticks.
	Delivered  int
	LatencySum int64
}

// Throughput returns the phase's deliveries per healthy node per tick.
func (p PhaseStat) Throughput() float64 {
	if p.End <= p.Start || p.Healthy == 0 {
		return 0
	}
	return float64(p.Delivered) / float64(p.End-p.Start) / float64(p.Healthy)
}

// MeanLatency returns the mean latency of the phase's deliveries in ticks.
func (p PhaseStat) MeanLatency() float64 {
	if p.Delivered == 0 {
		return 0
	}
	return float64(p.LatencySum) / float64(p.Delivered)
}

// Throughput returns the accepted traffic: measured deliveries per healthy
// node per tick. At low load it tracks the injection rate; past saturation it
// flattens (or collapses for weak information models).
func (r *Result) Throughput() float64 {
	if r.Window <= 0 || r.HealthyNodes == 0 {
		return 0
	}
	return float64(r.MeasuredDelivered) / float64(r.Window) / float64(r.HealthyNodes)
}

// DeliveredRatio returns the fraction of injected packets that were delivered.
func (r *Result) DeliveredRatio() float64 {
	if r.Injected == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Injected)
}

// Engine runs continuous traffic over one mesh. It owns the mesh for the
// duration of Run: the fault schedule mutates it in place.
type Engine struct {
	mesh    *mesh.Mesh
	model   InfoModel
	pattern Pattern
	opts    Options
}

// NewEngine returns an engine over m using the given information model and
// traffic pattern.
func NewEngine(m *mesh.Mesh, model InfoModel, pattern Pattern, opts Options) *Engine {
	if opts.Rate <= 0 {
		opts.Rate = 0.01
	}
	if opts.Rate > 1 {
		opts.Rate = 1
	}
	if opts.Warmup < 0 {
		opts.Warmup = 0
	}
	if opts.Window <= 0 {
		opts.Window = 256
	}
	return &Engine{mesh: m, model: model, pattern: pattern, opts: opts}
}

// run is the per-shard state of one Run, shared by the handler callbacks: a
// trial has one per slab (one in all when it does not shard). Its Result
// holds only the shard's packet counters and histograms; the trial merges
// them when the run ends.
type run struct {
	e *Engine
	// model is the information model this state routes against: e.model when
	// the trial runs on one slab, a private per-shard instance
	// (Options.ShardModel) when it splits.
	model   InfoModel
	res     *Result
	nodeRng []rng.Rand
	policy  routing.Policy
	horizon simnet.Time
	nextID  int

	// kinds are interned once per run so the hot path never touches strings.
	injectID, packetID simnet.KindID

	// provs caches the per-orientation provider, so the per-hop loop does not
	// re-ask the model. Fault events flush it (models may hand out new
	// providers).
	provs [8]routing.Provider

	// pool holds every in-flight packet by value; envelopes carry pool
	// indices (simnet's Ref fast path) instead of boxed copies. free is the
	// free-list of released slots. Packets dropped inside the simulator (a
	// node on their path died) leak their slot until the run ends, which is
	// bounded by the fault schedule.
	pool []packet
	free []int32

	dirs []grid.Direction // scratch for the expanded decision mask, cap 6

	// tel and trace are the run's telemetry sink and trace ring, both nil
	// unless enabled in Options.
	tel   *telemetry.Sink
	trace *telemetry.TraceSink

	// Churn-timeline state, nil/zero without Options.Timeline. nextInject
	// tracks each node's pending injection-timer delivery tick (the table is
	// shared by every state; each writes only its own nodes), so a repair can
	// tell a timer chain broken by the failure (the timer was dropped while
	// the node was faulty) from one still in flight. phased enables the
	// open-phase delivery tally, which the trial drains at every phase close.
	nextInject     []simnet.Time
	phased         bool
	phaseDelivered int
	phaseLatSum    int64
}

// packet is the typed, pooled payload of one in-flight packet, one cache
// line at most (TestPacketFitsCacheLine). It carries its current position, so
// a hop needs no coordinate table, and the index of its orientation, which is
// fixed at the source and selects the provider every hop.
type packet struct {
	id     int
	inject simnet.Time
	// at is the node the packet is at, or travelling to; dst its destination.
	at, dst coord
	dstID   int32
	hops    int32
	// traceIdx is the packet's slot in the trace ring, -1 when untraced.
	traceIdx int32
	orient   uint8
}

// coord is a node position in 32-bit coordinates indexed by axis, the
// packed form of grid.Point the packet record carries.
type coord [3]int32

func coordOf(p grid.Point) coord { return coord{int32(p.X), int32(p.Y), int32(p.Z)} }

func (c coord) point() grid.Point { return grid.Point{X: int(c[0]), Y: int(c[1]), Z: int(c[2])} }

// step moves c one hop in direction d: directions come in (+, -) pairs per
// axis, so d/2 is the axis and d&1 the sign.
func (c *coord) step(d grid.Direction) { c[d>>1] += 1 - 2*int32(d&1) }

// alloc reserves a pool slot, reusing a released one when available.
func (st *run) alloc() int32 {
	if n := len(st.free); n > 0 {
		ref := st.free[n-1]
		st.free = st.free[:n-1]
		return ref
	}
	st.pool = append(st.pool, packet{})
	return int32(len(st.pool) - 1)
}

// release returns a pool slot to the free-list.
func (st *run) release(ref int32) { st.free = append(st.free, ref) }

// Run executes one trial with the given seed and returns its measurements.
// Everything — injection gaps, destinations, tie-breaking, fault placement —
// derives deterministically from the seed, so identical seeds give identical
// results wherever the trial runs, on one shard or several. A trial that
// exhausts the simulator's event budget reports the failure in Result.Err
// instead of panicking.
func (e *Engine) Run(seed uint64) *Result {
	res := &Result{
		Model:        e.model.Name(),
		Pattern:      e.pattern.Name(),
		Rate:         e.opts.Rate,
		HealthyNodes: e.mesh.NodeCount() - e.mesh.FaultCount(),
		Warmup:       e.opts.Warmup,
		Window:       e.opts.Window,
	}
	models, slabs, err := e.partition()
	if err != nil {
		res.Err = err
		return res
	}
	// The shared randomness: one RNG stream per node (only the state owning
	// the node draws from it) and one stateless policy.
	nodeRng := make([]rng.Rand, e.mesh.NodeCount())
	for i := range nodeRng {
		nodeRng[i].Seed(rng.Derive(seed, uint64(i)))
	}
	policy := e.opts.Policy
	if policy == nil {
		policy = routing.Seeded{Seed: rng.Derive(seed, 1<<40)}
	}
	var nextInject []simnet.Time
	if e.opts.Timeline != nil {
		nextInject = make([]simnet.Time, e.mesh.NodeCount())
	}
	tr := &trial{e: e, res: res, horizon: e.opts.Warmup + e.opts.Window}
	tr.states = make([]*run, len(models))
	for s, model := range models {
		st := &run{
			e:          e,
			model:      model,
			res:        &Result{},
			nodeRng:    nodeRng,
			policy:     policy,
			horizon:    tr.horizon,
			pool:       make([]packet, 0, 1024),
			dirs:       make([]grid.Direction, 0, 6),
			nextInject: nextInject,
			phased:     e.opts.Timeline != nil,
		}
		if e.opts.Telemetry || e.opts.TraceEvery > 0 {
			st.tel = telemetry.NewSink()
			if inst, ok := model.(telemetry.Instrumentable); ok {
				inst.SetTelemetry(st.tel)
			}
		}
		tr.states[s] = st
	}
	if e.opts.TraceEvery > 0 {
		// Tracing pins a single state (see partition).
		st := tr.states[0]
		capacity := e.opts.TraceCap
		if capacity <= 0 {
			capacity = 256
		}
		st.trace = telemetry.NewTraceSink(rng.Derive(seed, traceSalt), e.opts.TraceEvery, capacity, st.tel)
	}
	tr.net = tr.newNetwork(slabs)
	injectID, packetID := tr.net.Kind(kindInject), tr.net.Kind(kindPacket)
	for _, st := range tr.states {
		st.injectID, st.packetID = injectID, packetID
	}
	for i, ev := range e.opts.Faults {
		evRng := rng.New(rng.Derive(seed, uint64(1)<<32+uint64(i)))
		tr.net.At(ev.At, func() {
			placed := ev.Inject.Inject(e.mesh, evRng)
			tr.faultsChanged(placed, false)
			// With a timeline also active, a scheduled injection is a phase
			// boundary too: the healthy-node base of the open phase changed.
			// It is not a timeline event, so Failures stays untouched.
			if tr.phases != nil && len(placed) > 0 {
				tr.closePhase(tr.net.Now())
			}
		})
	}
	if tl := e.opts.Timeline; tl != nil {
		// The step stream (arrival times, repair pairings) derives from one
		// salted generator, each group's placement from its own — so the
		// schedule and the placements are independent deterministic streams.
		steps := tl.Program(rng.New(rng.Derive(seed, churnProgramSalt)))
		tr.groups = make([][]grid.Point, fault.Groups(steps))
		tr.phases = make([]PhaseStat, 0, len(steps)+1)
		tr.phaseStart = e.opts.Warmup
		tr.phaseHealthy = res.HealthyNodes
		for i := range steps {
			stp := steps[i]
			var placeRng *rng.Rand
			if !stp.Repair {
				placeRng = rng.New(rng.Derive(seed, churnPlaceSalt+uint64(stp.Group)))
			}
			tr.net.At(simnet.Time(stp.At), func() { tr.churnStep(stp, placeRng) })
		}
	}
	sim, err := tr.net.Run()
	tr.finish(sim, err)
	return res
}

// trial is the coordinator of one Run. It owns what the per-shard run states
// share: the Result header and churn counters, the fault-schedule and churn
// callbacks, the phase ledger and the end-of-run merge. Its network has one
// slab per state (see sharded.go).
type trial struct {
	e       *Engine
	net     *simnet.Network
	states  []*run
	res     *Result
	horizon simnet.Time

	// groups records the nodes each failure group took down so its repair
	// restores exactly them. Nil without Options.Timeline.
	groups [][]grid.Point
	// The open phase: closed into phases at every churn event inside the
	// measurement window and once more at the end of the run. Its delivery
	// tally stays distributed over the states (run.phaseDelivered) and is
	// drained here when a phase closes.
	phases       []PhaseStat
	phaseStart   simnet.Time
	phaseHealthy int
}

// finish merges the per-state results into the trial's Result and closes the
// run's phase ledger, telemetry totals and traces.
func (tr *trial) finish(sim simnet.Stats, err error) {
	res := tr.res
	res.Err = err
	res.FinalTime = sim.FinalTime
	res.Events = sim.Events
	for _, st := range tr.states {
		sres := st.res
		res.Offered += sres.Offered
		res.Skipped += sres.Skipped
		res.Injected += sres.Injected
		res.Delivered += sres.Delivered
		res.Stuck += sres.Stuck
		res.MeasuredInjected += sres.MeasuredInjected
		res.MeasuredDelivered += sres.MeasuredDelivered
		res.Latency.Merge(&sres.Latency)
		res.Hops.Merge(&sres.Hops)
	}
	// Injected-in-A-lost-in-B is only visible globally: Lost must come from
	// the merged totals, never from per-shard differences.
	res.Lost = res.Injected - res.Delivered - res.Stuck
	if tr.phases != nil {
		// Close the open phase; drain deliveries past the horizon have
		// already been accumulated into it.
		end := tr.horizon
		if end < tr.phaseStart {
			end = tr.phaseStart
		}
		del, lat := tr.drainPhaseTallies()
		res.Phases = append(tr.phases, PhaseStat{
			Start: tr.phaseStart, End: end, Healthy: tr.phaseHealthy,
			Delivered: del, LatencySum: lat,
		})
	}
	if tel := tr.states[0].tel; tel != nil {
		for _, st := range tr.states[1:] {
			tel.Merge(st.tel)
		}
		// Packet and churn totals come from the Result at the end of the run
		// instead of per-packet increments: the hot path pays nothing for
		// counters the aggregates already carry.
		tel.Add(telemetry.PacketsInjected, int64(res.Injected))
		tel.Add(telemetry.PacketsDelivered, int64(res.Delivered))
		tel.Add(telemetry.PacketsStuck, int64(res.Stuck))
		tel.Add(telemetry.PacketsLost, int64(res.Lost))
		tel.Add(telemetry.ChurnFailures, int64(res.Failures))
		tel.Add(telemetry.ChurnRepairs, int64(res.Repairs))
		tel.Add(telemetry.ChurnFailedNodes, int64(res.FailedNodes))
		tel.Add(telemetry.ChurnRepairedNodes, int64(res.RepairedNodes))
		res.Telemetry = tel
	}
	if trace := tr.states[0].trace; trace != nil {
		trace.Close()
		res.Traces = trace.Traces()
	}
}

// Derivation salts for the churn timeline's seed streams, disjoint from the
// per-node (dense IDs), policy (1<<40), fault-event (1<<32+i) and injector
// (1<<48) streams.
const (
	churnProgramSalt = uint64(1) << 41
	churnPlaceSalt   = uint64(1) << 42
	// traceSalt keys the packet-trace sampling stream (telemetry).
	traceSalt = uint64(1) << 43
)

// faultsChanged pushes placed (or, with repaired, restored) faults through
// every state's model — the incremental FaultApplier / FaultRepairer path
// when the model has one, a wholesale invalidation otherwise — and flushes
// the cached provider tables: a model is free to hand out new providers
// after a fault change.
func (tr *trial) faultsChanged(pts []grid.Point, repaired bool) {
	for _, st := range tr.states {
		incremental := false
		if repaired {
			if fr, ok := st.model.(FaultRepairer); ok {
				fr.RepairFaults(pts)
				incremental = true
			}
		} else if fa, ok := st.model.(FaultApplier); ok {
			fa.ApplyFaults(pts)
			incremental = true
		}
		if !incremental {
			st.model.Invalidate()
		}
		st.provs = [8]routing.Provider{}
	}
}

// churnStep executes one materialised timeline step: place a failure group or
// repair one, push the change through every state's model, and close the
// current measurement phase.
func (tr *trial) churnStep(stp fault.Step, placeRng *rng.Rand) {
	now := tr.net.Now()
	m := tr.e.mesh
	if stp.Repair {
		pts := tr.groups[stp.Group]
		if len(pts) == 0 {
			return // the failure placed nothing (saturated mesh)
		}
		tr.groups[stp.Group] = nil
		m.RemoveFaults(pts...)
		tr.faultsChanged(pts, true)
		tr.res.Repairs++
		tr.res.RepairedNodes += len(pts)
		// Restart the injection clock of every repaired node whose pending
		// timer was dropped while it was faulty (delivery tick strictly in
		// the past); a timer still in flight keeps the chain alive on its
		// own. A timer landing on the repair tick itself is never dropped —
		// churn callbacks run before any same-tick delivery, on one shard or
		// several, so the node is healthy by the time it delivers — hence the
		// strict comparison (<= would arm a second chain).
		for _, p := range pts {
			id := m.ID(p)
			if st := tr.states[tr.net.ShardOf(id)]; st.nextInject[id] < now {
				st.scheduleInjection(tr.net.ContextOf(id))
			}
		}
	} else {
		placed := stp.Inject.Inject(m, placeRng)
		if len(placed) == 0 {
			return
		}
		tr.groups[stp.Group] = placed
		tr.faultsChanged(placed, false)
		tr.res.Failures++
		tr.res.FailedNodes += len(placed)
	}
	tr.closePhase(now)
}

// closePhase ends the open measurement phase at a churn event. Events at or
// before the warmup only rebase the first phase's healthy count; events at or
// past the horizon leave the final phase open (it closes when the run ends).
func (tr *trial) closePhase(now simnet.Time) {
	healthy := tr.e.mesh.NodeCount() - tr.e.mesh.FaultCount()
	if now <= tr.e.opts.Warmup {
		tr.phaseHealthy = healthy
		return
	}
	if now >= tr.horizon {
		return
	}
	if now == tr.phaseStart {
		// A second churn event on the same tick: merge the boundaries — the
		// next phase starts from the combined post-event state instead of
		// recording a zero-length phase.
		tr.phaseHealthy = healthy
		return
	}
	del, lat := tr.drainPhaseTallies()
	tr.phases = append(tr.phases, PhaseStat{
		Start: tr.phaseStart, End: now, Healthy: tr.phaseHealthy,
		Delivered: del, LatencySum: lat,
	})
	tr.phaseStart = now
	tr.phaseHealthy = healthy
}

// drainPhaseTallies sums and resets the states' open-phase accumulators.
func (tr *trial) drainPhaseTallies() (del int, lat int64) {
	for _, st := range tr.states {
		del += st.phaseDelivered
		lat += st.phaseLatSum
		st.phaseDelivered, st.phaseLatSum = 0, 0
	}
	return del, lat
}

// Init implements simnet.Handler: every healthy node schedules its first
// injection.
func (st *run) Init(ctx *simnet.Context) { st.scheduleInjection(ctx) }

// scheduleInjection draws a geometric inter-arrival gap for this node's next
// injection and arms a timer, unless the horizon has passed.
func (st *run) scheduleInjection(ctx *simnet.Context) {
	if ctx.Time() >= st.horizon {
		return
	}
	r := &st.nodeRng[ctx.SelfID()]
	gap := geometricGap(r, st.e.opts.Rate)
	if st.nextInject != nil {
		st.nextInject[ctx.SelfID()] = ctx.Time() + gap
	}
	ctx.AfterRef(gap, st.injectID, simnet.NoRef)
}

// geometricGap samples the tick count until the next success of a Bernoulli
// process with probability rate (at least 1).
func geometricGap(r *rng.Rand, rate float64) simnet.Time {
	if rate >= 1 {
		return 1
	}
	u := r.Float64()
	// Invert the geometric CDF; u is in [0,1), so both logs are negative and
	// the ratio is non-negative.
	gap := int64(math.Log1p(-u)/math.Log1p(-rate)) + 1
	if gap < 1 {
		gap = 1
	}
	return simnet.Time(gap)
}

// Receive implements simnet.Handler. It dispatches on the interned KindID;
// packet envelopes carry a pool reference, never a boxed payload.
func (st *run) Receive(ctx *simnet.Context, env *simnet.Envelope) {
	switch env.KindID {
	case st.injectID:
		st.inject(ctx)
		st.scheduleInjection(ctx)
	case st.packetID:
		ref := env.Ref
		if st.pool[ref].dstID == ctx.SelfID() {
			st.deliver(ctx, ref)
			return
		}
		st.forward(ctx, ref)
	default:
		panic(fmt.Sprintf("traffic: unexpected envelope kind %q", env.Kind))
	}
}

// inject generates one packet at this node if the run is still within the
// injection horizon and the pattern yields a destination.
func (st *run) inject(ctx *simnet.Context) {
	if ctx.Time() >= st.horizon {
		return
	}
	st.res.Offered++
	r := &st.nodeRng[ctx.SelfID()]
	self := ctx.Self()
	d, ok := st.e.pattern.Dest(r, ctx.Mesh(), self)
	if !ok {
		st.res.Skipped++
		return
	}
	ref := st.alloc()
	st.pool[ref] = packet{
		id:       st.nextID,
		inject:   ctx.Time(),
		at:       coordOf(self),
		dst:      coordOf(d),
		dstID:    int32(ctx.Mesh().Index(d)),
		traceIdx: -1,
		orient:   uint8(grid.OrientationOf(self, d).Index()),
	}
	if st.trace != nil && st.trace.Sampled(st.nextID) {
		pk := &st.pool[ref]
		pk.traceIdx = st.trace.Begin(pk.id, ctx.SelfID(), pk.dstID, int64(pk.inject))
	}
	st.nextID++
	st.res.Injected++
	if ctx.Time() >= st.e.opts.Warmup {
		st.res.MeasuredInjected++
	}
	st.forward(ctx, ref)
}

// forward advances a packet one hop using the information model, or records it
// as stuck when every preferred direction is excluded. The hop reads no
// per-node table: the node's ID comes with the context, its coordinates and
// the destination's with the packet, and one CandidateMaskID call — for the
// field providers a read of the destination's exception table once an octant
// that holds the hop is built — gives the directions.
func (st *run) forward(ctx *simnet.Context, ref int32) {
	pk := &st.pool[ref]
	prov := st.provs[pk.orient]
	if prov == nil {
		prov = st.model.Provider(grid.OrientationFromIndex(int(pk.orient)))
		st.provs[pk.orient] = prov
	}
	self, dst := pk.at.point(), pk.dst.point()
	// Hop-source classification is gated on the packet being traced, so the
	// untraced hot path pays nothing beyond the traceIdx compare.
	traced := st.trace != nil && pk.traceIdx >= 0
	var builds0, dhits0 int64
	if traced {
		builds0 = st.tel.Get(telemetry.DecisionBuilds)
		dhits0 = st.tel.Get(telemetry.DecisionHits)
	}
	mk := prov.CandidateMaskID(ctx.Mesh(), ctx.SelfID(), self, pk.dstID, dst)
	st.dirs = routing.AppendMaskDirs(st.dirs[:0], mk)
	if len(st.dirs) == 0 {
		st.res.Stuck++
		if traced {
			st.trace.Finish(pk.traceIdx, pk.id, -1, telemetry.StatusStuck)
		}
		st.release(ref)
		return
	}
	dir := st.dirs[st.policy.Pick(self, dst, st.dirs)]
	pk.hops++
	if traced {
		src := telemetry.HopDirect
		switch {
		case st.tel.Get(telemetry.DecisionHits) > dhits0:
			src = telemetry.HopDecisionHit
		case st.tel.Get(telemetry.DecisionBuilds) > builds0:
			src = telemetry.HopColdBuild
		}
		st.trace.Hop(pk.traceIdx, pk.id, ctx.SelfID(), src)
	}
	pk.at.step(dir)
	ctx.SendRef(dir, st.packetID, ref)
}

// deliver records a completed packet and releases its pool slot.
func (st *run) deliver(ctx *simnet.Context, ref int32) {
	pk := &st.pool[ref]
	st.res.Delivered++
	if st.trace != nil && pk.traceIdx >= 0 {
		st.trace.Finish(pk.traceIdx, pk.id, int64(ctx.Time()), telemetry.StatusDelivered)
	}
	if pk.inject >= st.e.opts.Warmup {
		st.res.MeasuredDelivered++
		lat := ctx.Time() - pk.inject
		st.res.Latency.Add(int(lat))
		st.res.Hops.Add(int(pk.hops))
		if st.phased {
			st.phaseDelivered++
			st.phaseLatSum += int64(lat)
		}
	}
	st.release(ref)
}
