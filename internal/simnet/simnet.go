// Package simnet is a small discrete-event simulator for message passing on a
// mesh: each node runs a handler, messages travel only between neighbouring
// nodes with a configurable link delay, and delivery order is deterministic
// (time, then send sequence). The distributed protocols of package protocol —
// labelling, identification, boundary construction, detection and routing —
// run on top of it, and the experiments use its statistics to measure the
// information model's message overhead.
//
// # One driver
//
// A Network owns one or more slabs: contiguous dense-ID ranges of the mesh
// (see mesh.SlabPartition), each with its own handler, event queue, sequence
// counter, kind table and outbox. New builds the one slab covering the whole
// mesh; NewSlabs builds one slab per range. Both run the same loop, one tick
// at a time: control callbacks (Network.At) first, from a coordinator heap,
// then every slab with events at that tick, then the exchange of cross-slab
// sends and the event-budget check. A one-slab network runs inline and never
// crosses a channel; with several slabs, each processes its tick on its own
// worker goroutine (see sharded.go for why that is safe and deterministic).
//
// # Fast path
//
// Internally the simulator is index-first: nodes are addressed by their dense
// mesh ID (int32), envelope kinds are interned to small integer KindIDs (the
// string-keyed Stats.ByKind map is built when Stats is read), and the event
// queue is a calendar queue — a ring of per-tick buckets whose backing arrays
// are recycled across ticks, with a binary-heap fallback for far-future
// timers. Events are stored by value in the buckets, so the steady-state hot
// path of one event — enqueue, bucket append, dequeue, deliver — performs no
// allocation.
//
// A delivery reads no per-node table but the fault bitset: envelopes name
// nodes by dense ID (Envelope.FromID/ToID), the handler's Context is one per
// slab, aimed at the event's node, and slab ownership follows from the ID
// ranges.
//
// Handlers that need the same discipline (the traffic engine) use the Ref
// fast path: Context.SendRef / Context.AfterRef carry an opaque int32 payload
// reference into the envelope instead of an `any` box, and the handler
// resolves the reference against its own typed pool.
package simnet

import (
	"errors"
	"fmt"
	"sync"

	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
	"mccmesh/internal/telemetry"
)

// Time is simulated time in abstract ticks.
type Time int64

// KindID is an interned envelope kind. IDs are per-Network, dense and small;
// intern kinds once with Network.Kind and compare/switch on the ID instead of
// the string on hot paths.
type KindID int32

// NoRef is the Ref value of envelopes sent without a payload reference.
const NoRef int32 = -1

// ErrEventBudget is returned (wrapped) by Run when the configured MaxEvents
// budget is exhausted — almost always a protocol livelock or an undersized
// budget for the offered load.
var ErrEventBudget = errors.New("simnet: event budget exhausted")

// Envelope is a message in flight or being delivered.
type Envelope struct {
	// FromID and ToID are the dense mesh IDs of the sending and receiving
	// nodes (Mesh.Point gives their coordinates). Timer events and posts
	// have FromID == ToID.
	FromID, ToID int32
	// Kind classifies the message for statistics ("label", "detect", ...).
	Kind string
	// KindID is the interned form of Kind, stable within one Network.
	KindID KindID
	// Payload is the protocol-specific content.
	Payload any
	// Ref is the opaque payload reference of the zero-alloc fast path
	// (Context.SendRef / Context.AfterRef), or NoRef. The simulator never
	// interprets it; the sending handler resolves it against its own pool.
	Ref int32
}

// Handler is the per-node protocol logic. A single Handler value is shared by
// all nodes of a slab; the node identity arrives through the Context.
type Handler interface {
	// Init runs once per healthy node before any message is delivered.
	Init(ctx *Context)
	// Receive handles one delivered envelope. The envelope and the context
	// point into scratch slots the simulator reuses for the next delivery;
	// handlers must copy anything they keep past the call.
	Receive(ctx *Context, env *Envelope)
}

// Stats aggregates what happened during a run.
type Stats struct {
	// Delivered counts messages delivered to healthy nodes.
	Delivered int
	// Dropped counts messages addressed to faulty or out-of-mesh nodes.
	Dropped int
	// Timers counts self-scheduled events.
	Timers int
	// Control counts scheduled control callbacks (Network.At), e.g. the
	// mid-run fault injections of the traffic engine.
	Control int
	// ByKind breaks Delivered down by Envelope.Kind.
	ByKind map[string]int
	// FinalTime is the simulated time of the last processed event.
	FinalTime Time
	// Events is the total number of processed events: deliveries, drops and
	// control callbacks.
	Events int
}

// Options configure a Network.
type Options struct {
	// LinkDelay is the delivery latency of one hop. Defaults to 1. It is also
	// the lookahead of the slab barrier, which needs at least 1.
	LinkDelay Time
	// MaxEvents aborts runaway protocols. Defaults to 4_000_000. Control
	// callbacks count against it: the budget is checked before every
	// callback, and each slab processes at most the budget left at the start
	// of its tick. One slab therefore stops at exactly the budget; several
	// slabs stop on the same tick, possibly a little past it.
	MaxEvents int
	// Telemetry, when non-nil, receives event-queue counters (heap-fallback
	// pushes, heap→ring migrations, bucket recycling, peak bucket occupancy).
	// With several slabs, each counts into a private sink (the slabs run in
	// parallel) and Run merges them into this one when it returns. Nil — the
	// default — keeps every instrumentation point a predicted nil-check
	// branch.
	Telemetry *telemetry.Sink
	// MigrateRef rewrites an envelope payload reference when an event crosses
	// slabs at the barrier exchange: handlers that resolve Envelope.Ref
	// against per-slab pools (the traffic engine) move the payload from the
	// source slab's pool to the destination's here. It runs single-threaded
	// on the coordinator. Required when handlers use SendRef across slab
	// boundaries; boxed payloads migrate automatically.
	MigrateRef func(from, to int, kind KindID, ref int32) int32

	// farThreshold forces events further than this many ticks in the future
	// onto the heap fallback instead of the calendar ring. Zero selects the
	// ring width. It exists so tests can compare the calendar's event order
	// against the pure-heap reference; production code leaves it alone.
	farThreshold Time
}

// Network is the simulator instance.
type Network struct {
	mesh  *mesh.Mesh
	opts  Options
	slabs []*slab

	// store is indexed by dense node ID; a slab only touches the entries of
	// its own nodes.
	store []map[string]any

	now     Time
	final   Time // the last tick that processed anything
	events  int  // events processed: deliveries, drops, control callbacks
	control int  // control callbacks run
	ctrl    ctrlHeap
	ctrlSeq int64

	// Worker machinery, used only with two or more slabs: one persistent
	// goroutine per slab, fed ticks over start and reporting back over done,
	// so the per-tick cost is two channel operations per active slab rather
	// than a goroutine spawn.
	start   []chan tickJob
	done    chan slabDone
	workers sync.WaitGroup
}

// New creates a network over the mesh with the given handler: one slab
// covering every node.
func New(m *mesh.Mesh, handler Handler, opts ...Options) *Network {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	return NewSlabs(m, []Handler{handler}, mesh.SlabPartition(m, 1), o)
}

// NewSlabs creates a network with one slab per range, slab i running
// handlers[i]. Handlers typically share read-only configuration but must keep
// mutable per-node state private to their slab; shared mutable state may
// only change inside At callbacks. The ranges must be the contiguous
// ascending cover mesh.SlabPartition produces.
func NewSlabs(m *mesh.Mesh, handlers []Handler, ranges []mesh.IDRange, opts Options) *Network {
	if len(handlers) != len(ranges) {
		panic(fmt.Sprintf("simnet: %d handlers for %d slabs", len(handlers), len(ranges)))
	}
	if opts.LinkDelay <= 0 {
		opts.LinkDelay = 1
	}
	if opts.MaxEvents <= 0 {
		opts.MaxEvents = 4_000_000
	}
	if opts.farThreshold <= 0 || opts.farThreshold > wheelSize {
		opts.farThreshold = wheelSize
	}
	n := &Network{
		mesh:  m,
		opts:  opts,
		store: make([]map[string]any, m.NodeCount()),
	}
	for i, r := range ranges {
		s := &slab{
			net: n, mesh: m, opts: n.opts,
			idx: i, lo: r.Lo, hi: r.Hi,
			handler: handlers[i],
			kindIDs: make(map[string]KindID, 8),
		}
		s.ctx.sl = s
		s.queue.init()
		s.queue.tel = opts.Telemetry
		if opts.Telemetry != nil && len(ranges) > 1 {
			s.queue.tel = telemetry.NewSink()
		}
		n.slabs = append(n.slabs, s)
	}
	return n
}

// Kind interns an envelope kind in every slab and returns its dense ID.
// Handlers on the fast path intern their kinds once (at Init) and pass the
// IDs to SendRef, SendDirRef and AfterRef. The slabs intern in the same
// order, so the IDs agree; a divergence (a handler interning slab-locally
// first) panics rather than silently mis-dispatching.
func (n *Network) Kind(name string) KindID {
	id := n.slabs[0].intern(name)
	for _, s := range n.slabs[1:] {
		if got := s.intern(name); got != id {
			panic(fmt.Sprintf("simnet: kind %q interned as %d and %d across slabs", name, id, got))
		}
	}
	return id
}

// KindName returns the string form of a kind interned with Kind.
func (n *Network) KindName(id KindID) string { return n.slabs[0].kindNames[id] }

// Mesh returns the underlying mesh.
func (n *Network) Mesh() *mesh.Mesh { return n.mesh }

// Now returns the current simulated time.
func (n *Network) Now() Time { return n.now }

// ShardOf returns the index of the slab owning the dense node ID.
func (n *Network) ShardOf(id int32) int { return n.slabOf(id).idx }

// slabOf returns the slab whose ID range holds id: a scan of the few
// ascending ranges.
func (n *Network) slabOf(id int32) *slab {
	for _, s := range n.slabs[:len(n.slabs)-1] {
		if id < s.hi {
			return s
		}
	}
	return n.slabs[len(n.slabs)-1]
}

// Stats returns the accumulated statistics, summed over the slabs: counters
// add up, ByKind merges by kind name, FinalTime is the latest processed tick
// (control callbacks included).
func (n *Network) Stats() Stats {
	st := Stats{ByKind: make(map[string]int), Control: n.control, Events: n.events, FinalTime: n.final}
	for _, s := range n.slabs {
		st.Delivered += s.delivered
		st.Dropped += s.dropped
		st.Timers += s.timers
		for id, count := range s.byKind {
			if count > 0 {
				st.ByKind[s.kindNames[id]] += count
			}
		}
	}
	return st
}

// Store returns the local key/value store of node p (creating it on demand).
// Protocol handlers use it for per-node state; tests use it to inspect the
// final distributed state.
func (n *Network) Store(p grid.Point) map[string]any {
	idx := n.mesh.Index(p)
	if n.store[idx] == nil {
		n.store[idx] = make(map[string]any)
	}
	return n.store[idx]
}

// ContextOf returns a context for the node with dense ID id, bound to its
// owning slab. Control callbacks (Network.At) use it to act on behalf of a
// node — e.g. the traffic engine's churn handler re-arms a repaired node's
// injection timer, whose previous instance was dropped while the node was
// faulty. Each call returns a new context, which the caller may keep.
func (n *Network) ContextOf(id int32) *Context { return &Context{sl: n.slabOf(id), selfID: id} }

// Post injects an external event addressed to node p at the current time,
// into the queue of the slab owning p — e.g. the arrival of a routing request
// at the source. A point outside the mesh is posted to the first slab, where
// it is dropped.
func (n *Network) Post(p grid.Point, kind string, payload any) {
	id := n.mesh.ID(p)
	s := n.slabs[0]
	if id != mesh.NoNeighbor {
		s = n.slabOf(id)
	}
	s.enqueue(event{
		time: n.now,
		from: id, to: id,
		kind: s.intern(kind), ref: NoRef,
		box: s.box(payload),
	})
}

// At schedules fn to run at simulated time t (or at the current time if t has
// already passed). Control callbacks run first in their tick, before any of
// its deliveries, in scheduling order among themselves. They are the one
// place shared state (the mesh's fault set, the handlers' models) may change
// — the traffic engine uses them to inject faults mid-run. Call At before Run
// or from a control callback; with several slabs, never from a handler.
func (n *Network) At(t Time, fn func()) {
	if t < n.now {
		t = n.now
	}
	n.ctrlSeq++
	n.ctrl.push(ctrlEvent{time: t, seq: n.ctrlSeq, fn: fn})
}

// Run initialises every healthy node in dense-ID order and processes events
// until the network is quiescent. It returns the final statistics, and a
// non-nil error wrapping ErrEventBudget if the event budget was exhausted
// before quiescence.
func (n *Network) Run() (Stats, error) {
	for _, s := range n.slabs {
		for id := s.lo; id < s.hi; id++ {
			if !n.mesh.FaultyAt(int(id)) {
				s.ctx.selfID = id
				s.handler.Init(&s.ctx)
			}
		}
	}
	err := n.drain()
	if len(n.slabs) > 1 {
		for _, s := range n.slabs {
			n.opts.Telemetry.Merge(s.queue.tel)
		}
	}
	return n.Stats(), err
}

// drain is the event loop: pick the earliest tick with work, run its control
// callbacks, let every slab with events at that tick process them, then
// exchange the cross-slab sends (which all target t+LinkDelay or later) and
// repeat.
func (n *Network) drain() error {
	if len(n.slabs) > 1 {
		n.startWorkers()
		defer n.stopWorkers()
	}
	n.exchange() // flush Init-time cross-slab sends
	active := make([]int, 0, len(n.slabs))
	for {
		t, ok := n.nextTick()
		if !ok {
			return nil
		}
		n.now = t
		active = n.advanceTo(t, active[:0])
		// Control callbacks first: they run single-threaded, in scheduling
		// order, against a quiescent tick, so every slab observes a change
		// of shared state at the same point of the timeline.
		if n.ctrl.due(t) {
			for n.ctrl.due(t) {
				if n.events >= n.opts.MaxEvents {
					return n.budgetErr(t)
				}
				ev := n.ctrl.pop()
				n.events++
				n.control++
				n.final = t
				ev.fn()
			}
			// A callback may have armed same-tick work on an otherwise idle
			// slab (e.g. re-arming a repaired node's timer).
			active = n.advanceTo(t, active[:0])
		}
		processed, exhausted := n.runTicks(active, t, n.opts.MaxEvents-n.events)
		if processed > 0 {
			n.events += processed
			n.final = t
		}
		if exhausted {
			return n.budgetErr(t)
		}
		n.exchange()
		// Only several slabs can overrun the budget: each stops at the budget
		// left at the start of the tick.
		if n.events > n.opts.MaxEvents {
			return n.budgetErr(t)
		}
	}
}

// advanceTo moves every slab to tick t and appends the slabs with events at t
// to active.
func (n *Network) advanceTo(t Time, active []int) []int {
	for i, s := range n.slabs {
		s.advance(t)
		if len(s.queue.ring[t&wheelMask]) > 0 {
			active = append(active, i)
		}
	}
	return active
}

// nextTick returns the earliest tick with pending work — a queued event in
// any slab or a scheduled control callback.
func (n *Network) nextTick() (Time, bool) {
	var best Time
	ok := false
	if len(n.ctrl) > 0 {
		best, ok = n.ctrl[0].time, true
	}
	for _, s := range n.slabs {
		if s.queue.pending() {
			if t := s.queue.nextTime(s.now); !ok || t < best {
				best, ok = t, true
			}
		}
	}
	return best, ok
}

func (n *Network) budgetErr(t Time) error {
	return fmt.Errorf("%w: budget %d at t=%d (protocol livelock or undersized MaxEvents?)",
		ErrEventBudget, n.opts.MaxEvents, t)
}

// slab is one dense-ID range of a Network with everything needed to process
// its events independently of the other slabs within a tick.
type slab struct {
	net *Network
	// mesh and opts repeat the Network's so that the per-event path reaches
	// them through the slab alone.
	mesh *mesh.Mesh
	opts Options

	idx     int
	lo, hi  int32
	handler Handler

	now   Time
	seq   int64
	queue calendarQueue

	delivered, dropped, timers int

	// env and ctx are the delivery scratch slots handed (by pointer) to
	// Handler.Receive; ctx also serves Init. See process.
	env Envelope
	ctx Context

	// kindIDs interns kind strings; kindNames and byKind are indexed by KindID.
	kindIDs   map[string]KindID
	kindNames []string
	byKind    []int

	// boxed holds `any` payloads outside the (pointer-free) event queue;
	// boxedFree is its slot free-list. Ref-based sends never touch it.
	boxed     []any
	boxedFree []int32

	// outbox collects, in send order, the events addressed to nodes of other
	// slabs; the coordinator exchanges them at the tick barrier.
	outbox []event
}

// box parks a payload in the side table and returns its slot, reusing freed
// slots. nil payloads are not boxed.
func (s *slab) box(v any) int32 {
	if v == nil {
		return noBox
	}
	if k := len(s.boxedFree); k > 0 {
		idx := s.boxedFree[k-1]
		s.boxedFree = s.boxedFree[:k-1]
		s.boxed[idx] = v
		return idx
	}
	s.boxed = append(s.boxed, v)
	return int32(len(s.boxed) - 1)
}

// unbox retrieves and releases a boxed payload.
func (s *slab) unbox(idx int32) any {
	if idx == noBox {
		return nil
	}
	v := s.boxed[idx]
	s.boxed[idx] = nil
	s.boxedFree = append(s.boxedFree, idx)
	return v
}

// intern returns the stable KindID of name, allocating one on first use.
func (s *slab) intern(name string) KindID {
	if id, ok := s.kindIDs[name]; ok {
		return id
	}
	id := KindID(len(s.kindNames))
	s.kindIDs[name] = id
	s.kindNames = append(s.kindNames, name)
	s.byKind = append(s.byKind, 0)
	return id
}

// advance moves the slab's clock to t and migrates the heap events that now
// fall inside the calendar window, before anything can be enqueued for those
// ticks (see calendarQueue). The caller guarantees no queued event is earlier
// than t.
func (s *slab) advance(t Time) {
	s.now = t
	if len(s.queue.far) > 0 {
		s.queue.migrate(t, s.opts.farThreshold)
	}
}

// runTick processes the events scheduled at exactly tick t, the current
// tick, but at most budget of them. It returns how many it processed and
// whether it stopped short.
func (s *slab) runTick(t Time, budget int) (processed int, exhausted bool) {
	bucket := &s.queue.ring[t&wheelMask]
	// The bucket may grow while it is drained: same-tick events appended
	// during processing (After(0), Post) carry larger sequence numbers and
	// belong at the tail, so re-reading len each iteration preserves the
	// (time, seq) order exactly.
	for i := 0; i < len(*bucket); i++ {
		if i == budget {
			// Drop the processed prefix so the queue stays consistent.
			s.queue.consume(bucket, i)
			return i, true
		}
		ev := (*bucket)[i] // copy: the append above may move the slice
		s.process(&ev)
	}
	processed = len(*bucket)
	s.queue.consume(bucket, processed)
	return processed, false
}

// process delivers (or drops) one dequeued event.
func (s *slab) process(ev *event) {
	if ev.to == mesh.NoNeighbor || s.mesh.FaultyAt(int(ev.to)) {
		s.dropped++
		s.unbox(ev.box) // release the payload of the dropped message
		return
	}
	s.delivered++
	s.byKind[ev.kind]++
	// env and ctx are reusable scratch slots, not fresh values: passing a
	// pointer through the Handler interface would otherwise heap-allocate
	// both per delivery, and env is filled field by field — a composite
	// literal here compiles to a build-then-copy of the whole struct. Receive
	// must not retain either.
	env := &s.env
	env.FromID = ev.from
	env.ToID = ev.to
	env.Kind = s.kindNames[ev.kind]
	env.KindID = ev.kind
	env.Payload = s.unbox(ev.box)
	env.Ref = ev.ref
	s.ctx.selfID = ev.to
	s.handler.Receive(&s.ctx, env)
}

// enqueue assigns the next sequence number and buckets the event. Events
// addressed to a node of another slab are diverted to the outbox instead; the
// coordinator re-enqueues them into the owning slab at the tick barrier
// (which assigns that slab's own sequence numbers, so destination buckets
// stay seq-sorted).
func (s *slab) enqueue(ev event) {
	s.seq++
	ev.seq = s.seq
	if ev.to != mesh.NoNeighbor && (ev.to < s.lo || ev.to >= s.hi) {
		s.outbox = append(s.outbox, ev)
		return
	}
	s.queue.push(ev, s.now, s.opts.farThreshold)
}

// Context gives a handler access to its node's identity, local store and
// communication primitives. The context a handler receives is its slab's
// scratch slot, re-aimed at each delivery's node: it is valid for the call
// only.
type Context struct {
	sl     *slab
	selfID int32
}

// Self returns the coordinates of the node this context belongs to.
func (c *Context) Self() grid.Point { return c.sl.mesh.Point(int(c.selfID)) }

// SelfID returns the dense mesh ID of the node this context belongs to.
func (c *Context) SelfID() int32 { return c.selfID }

// Time returns the current simulated time.
func (c *Context) Time() Time { return c.sl.now }

// Mesh exposes the topology (a real node knows its own coordinates and the
// mesh dimensions; it must not use the mesh to inspect distant fault status —
// protocols gather that through messages).
func (c *Context) Mesh() *mesh.Mesh { return c.sl.mesh }

// Store returns this node's local key/value store.
func (c *Context) Store() map[string]any { return c.sl.net.Store(c.Self()) }

// NeighborFaulty reports whether the neighbour in direction dir is faulty or
// missing. Nodes are assumed to know the liveness of their direct neighbours
// (the paper's base assumption).
func (c *Context) NeighborFaulty(dir grid.Direction) bool {
	q := c.sl.mesh.NeighborID(c.selfID, dir)
	if q == mesh.NoNeighbor {
		return true
	}
	return c.sl.mesh.FaultyAt(int(q))
}

// Send transmits a message to a neighbouring node. It panics if to is not a
// mesh neighbour of the sender, keeping protocols honest about locality.
func (c *Context) Send(to grid.Point, kind string, payload any) {
	if self := c.Self(); grid.Manhattan(self, to) != 1 {
		panic(fmt.Sprintf("simnet: %v attempted a non-local send to %v", self, to))
	}
	s := c.sl
	s.enqueue(event{
		time: s.now + s.opts.LinkDelay,
		from: c.selfID, to: s.mesh.ID(to),
		kind: s.intern(kind), ref: NoRef,
		box: s.box(payload),
	})
}

// SendDir transmits a message to the neighbour in the given direction and
// reports whether such a neighbour exists.
func (c *Context) SendDir(dir grid.Direction, kind string, payload any) bool {
	s := c.sl
	to := s.mesh.NeighborID(c.selfID, dir)
	if to == mesh.NoNeighbor {
		return false
	}
	s.enqueue(event{
		time: s.now + s.opts.LinkDelay,
		from: c.selfID, to: to,
		kind: s.intern(kind), ref: NoRef,
		box: s.box(payload),
	})
	return true
}

// SendRef transmits a payload reference to the neighbour in the given
// direction and reports whether such a neighbour exists. It is the zero-alloc
// fast path: kind must be interned with Network.Kind, and ref is an opaque
// handle the receiving handler resolves against its own pool (it arrives in
// Envelope.Ref; Envelope.Payload stays nil).
func (c *Context) SendRef(dir grid.Direction, kind KindID, ref int32) bool {
	s := c.sl
	to := s.mesh.NeighborID(c.selfID, dir)
	if to == mesh.NoNeighbor {
		return false
	}
	s.enqueue(event{
		time: s.now + s.opts.LinkDelay,
		from: c.selfID, to: to,
		kind: kind, ref: ref, box: noBox,
	})
	return true
}

// Broadcast sends the message to every in-bounds neighbour and returns how
// many copies were sent.
func (c *Context) Broadcast(kind string, payload any) int {
	sent := 0
	for _, dir := range c.sl.mesh.Directions() {
		if c.SendDir(dir, kind, payload) {
			sent++
		}
	}
	return sent
}

// After schedules a local timer event delivered to this node after delay.
func (c *Context) After(delay Time, kind string, payload any) {
	c.after(delay, c.sl.intern(kind), NoRef, payload)
}

// AfterRef schedules a local timer carrying a payload reference instead of a
// boxed payload — the timer counterpart of SendRef.
func (c *Context) AfterRef(delay Time, kind KindID, ref int32) {
	c.after(delay, kind, ref, nil)
}

func (c *Context) after(delay Time, kind KindID, ref int32, payload any) {
	if delay < 0 {
		delay = 0
	}
	s := c.sl
	s.timers++
	s.enqueue(event{
		time: s.now + delay,
		from: c.selfID, to: c.selfID,
		kind: kind, ref: ref,
		box: s.box(payload),
	})
}
