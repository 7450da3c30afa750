package simnet

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
	"mccmesh/internal/rng"
	"mccmesh/internal/telemetry"
)

// mustRun drains a network in a test that does not expect budget exhaustion.
func mustRun(t *testing.T, net *Network) Stats {
	t.Helper()
	stats, err := net.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return stats
}

// floodHandler floods a token to every node and records the hop distance at
// which each node first saw it.
type floodHandler struct{}

func (floodHandler) Init(ctx *Context) {}

func (floodHandler) Receive(ctx *Context, env *Envelope) {
	if _, seen := ctx.Store()["seen"]; seen {
		return
	}
	ctx.Store()["seen"] = ctx.Time()
	ctx.Broadcast("flood", env.Payload)
}

func TestFloodReachesEveryHealthyNode(t *testing.T) {
	m := mesh.New3D(4, 4, 4)
	m.AddFaults(grid.Point{X: 1, Y: 1, Z: 1})
	net := New(m, floodHandler{})
	net.Post(grid.Point{}, "flood", "token")
	stats := mustRun(t, net)

	reached := 0
	m.ForEach(func(p grid.Point) {
		if m.IsFaulty(p) {
			return
		}
		if _, ok := net.Store(p)["seen"]; ok {
			reached++
		}
	})
	if reached != m.NodeCount()-1 {
		t.Errorf("flood reached %d healthy nodes, want %d", reached, m.NodeCount()-1)
	}
	if stats.Delivered == 0 || stats.ByKind["flood"] != stats.Delivered {
		t.Error("statistics not recorded")
	}
	if stats.Dropped == 0 {
		t.Error("messages to the faulty node should have been dropped")
	}
}

func TestFloodTimeEqualsDistance(t *testing.T) {
	m := mesh.New2D(5, 5)
	net := New(m, floodHandler{})
	src := grid.Point{}
	net.Post(src, "flood", nil)
	mustRun(t, net)
	m.ForEach(func(p grid.Point) {
		seen, ok := net.Store(p)["seen"].(Time)
		if !ok {
			t.Fatalf("node %v never saw the token", p)
		}
		// With unit link delay, the first arrival time is the hop distance
		// (the initial Post is delivered at time 0).
		if int(seen) != grid.Manhattan(src, p) {
			t.Errorf("node %v first saw the token at %d, want %d", p, seen, grid.Manhattan(src, p))
		}
	})
}

// pingPong bounces a counter between a node and its neighbour in direction
// dir (+X by default) a limited number of times.
type pingPong struct {
	limit int
	dir   grid.Direction
}

func (pingPong) Init(ctx *Context) {}

func (h pingPong) Receive(ctx *Context, env *Envelope) {
	switch env.Kind {
	case "start":
		ctx.SendDir(h.dir, "pong", 0)
	case "pong":
		n := env.Payload.(int)
		if n >= h.limit {
			return
		}
		ctx.Send(ctx.Mesh().Point(int(env.FromID)), "pong", n+1)
	}
}

func TestDeterministicOrdering(t *testing.T) {
	run := func() Stats {
		m := mesh.New2D(3, 3)
		net := New(m, pingPong{limit: 10})
		net.Post(grid.Point{X: 1, Y: 1}, "start", nil)
		return mustRun(t, net)
	}
	a, b := run(), run()
	if a.Delivered != b.Delivered || a.FinalTime != b.FinalTime || a.Events != b.Events {
		t.Errorf("runs differ: %+v vs %+v", a, b)
	}
	if a.ByKind["pong"] != 11 {
		t.Errorf("pong count = %d, want 11", a.ByKind["pong"])
	}
}

func TestSendRejectsNonNeighbors(t *testing.T) {
	m := mesh.New2D(4, 4)
	net := New(m, floodHandler{})
	ctx := net.ContextOf(0)
	defer func() {
		if recover() == nil {
			t.Error("Send to a non-neighbour should panic")
		}
	}()
	ctx.Send(grid.Point{X: 3, Y: 3}, "bad", nil)
}

func TestSendDirOffMesh(t *testing.T) {
	m := mesh.New2D(3, 3)
	net := New(m, floodHandler{})
	ctx := net.ContextOf(0)
	if ctx.SendDir(grid.XNeg, "x", nil) {
		t.Error("SendDir off the mesh should report false")
	}
	if !ctx.SendDir(grid.XPos, "x", nil) {
		t.Error("SendDir to a valid neighbour should report true")
	}
}

type timerHandler struct{ fired *int }

func (timerHandler) Init(ctx *Context) {}

func (h timerHandler) Receive(ctx *Context, env *Envelope) {
	if env.Kind == "start" {
		ctx.After(5, "timer", nil)
		return
	}
	*h.fired++
}

func TestTimers(t *testing.T) {
	m := mesh.New2D(3, 3)
	fired := 0
	net := New(m, timerHandler{fired: &fired})
	net.Post(grid.Point{X: 1, Y: 1}, "start", nil)
	stats := mustRun(t, net)
	if fired != 1 {
		t.Errorf("timer fired %d times, want 1", fired)
	}
	if stats.FinalTime != 5 {
		t.Errorf("final time = %d, want 5", stats.FinalTime)
	}
	if stats.Timers != 1 {
		t.Errorf("timer count = %d, want 1", stats.Timers)
	}
}

func TestAtRunsControlCallbacksInTimeOrder(t *testing.T) {
	m := mesh.New2D(3, 3)
	net := New(m, pingPong{limit: 10})
	var times []Time
	net.At(3, func() { times = append(times, net.Now()) })
	net.At(7, func() {
		times = append(times, net.Now())
		// Control callbacks may mutate the mesh mid-run.
		m.SetFaulty(grid.Point{X: 2, Y: 1}, true)
	})
	net.Post(grid.Point{X: 1, Y: 1}, "start", nil)
	stats := mustRun(t, net)
	if len(times) != 2 || times[0] != 3 || times[1] != 7 {
		t.Errorf("control callbacks ran at %v, want [3 7]", times)
	}
	if stats.Control != 2 {
		t.Errorf("control count = %d, want 2", stats.Control)
	}
	if !m.IsFaulty(grid.Point{X: 2, Y: 1}) {
		t.Error("mesh mutation from control callback lost")
	}
	// The ping-pong bounces between (1,1) and (2,1); once (2,1) turns faulty
	// at t=7 the remaining pongs are dropped.
	if stats.Dropped == 0 {
		t.Error("messages to the mid-run fault should have been dropped")
	}
}

func TestAtClampsPastTimes(t *testing.T) {
	m := mesh.New2D(2, 2)
	net := New(m, floodHandler{})
	fired := false
	net.At(-5, func() { fired = true })
	mustRun(t, net)
	if !fired {
		t.Error("control callback scheduled in the past should still run")
	}
}

func TestNeighborFaulty(t *testing.T) {
	m := mesh.New2D(3, 3)
	m.AddFaults(grid.Point{X: 1, Y: 0})
	net := New(m, floodHandler{})
	ctx := net.ContextOf(0)
	if !ctx.NeighborFaulty(grid.XPos) {
		t.Error("faulty neighbour not reported")
	}
	if !ctx.NeighborFaulty(grid.YNeg) {
		t.Error("missing neighbour should count as faulty")
	}
	if ctx.NeighborFaulty(grid.YPos) {
		t.Error("healthy neighbour misreported")
	}
}

// TestEventBudgetReturnsError pins the budget rule. Control callbacks count
// against MaxEvents and the budget is checked before each one; every slab
// processes at most the budget left at the start of its tick. One slab
// therefore stops at exactly the budget, control included, and several slabs
// stop on the same tick as one.
func TestEventBudgetReturnsError(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mesh    func() *mesh.Mesh
		h       Handler
		start   grid.Point
		budget  int
		control bool // an At callback on every tick
	}{
		{"ping-pong", func() *mesh.Mesh { return mesh.New2D(3, 3) }, pingPong{limit: 1 << 30}, grid.Point{X: 1, Y: 1}, 100, false},
		{"ping-pong-across-slabs+control", func() *mesh.Mesh { return mesh.New2D(3, 3) }, pingPong{limit: 1 << 30, dir: grid.YPos}, grid.Point{X: 1}, 100, true},
		{"flood+control", func() *mesh.Mesh { return mesh.New3D(6, 6, 6) }, floodHandler{}, grid.Point{}, 150, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want Stats
			for _, shards := range []int{1, 2, 3} {
				net := newSlabNet(tc.mesh(), shards, tc.h, Options{MaxEvents: tc.budget})
				net.Post(tc.start, "start", nil)
				if tc.control {
					for tick := Time(0); tick < Time(2*tc.budget); tick++ {
						net.At(tick, func() {})
					}
				}
				stats, err := net.Run()
				if !errors.Is(err, ErrEventBudget) {
					t.Fatalf("%d slabs: Run error = %v, want ErrEventBudget", shards, err)
				}
				if shards == 1 {
					if stats.Events != tc.budget {
						t.Errorf("processed %d events before aborting, want exactly the budget %d", stats.Events, tc.budget)
					}
					if tc.control && stats.Control == 0 {
						t.Error("no control callback ran before the abort")
					}
					want = stats
					continue
				}
				if stats.FinalTime != want.FinalTime {
					t.Errorf("%d slabs aborted at t=%d, one slab at t=%d", shards, stats.FinalTime, want.FinalTime)
				}
				if stats.Events < tc.budget {
					t.Errorf("%d slabs aborted after %d events, under the budget %d", shards, stats.Events, tc.budget)
				}
			}
		})
	}
}

// --- equal-time ordering and calendar/heap equivalence -----------------------

// order is one recorded delivery/control occurrence.
type order struct {
	T    Time
	Kind string
	Node grid.Point
	Seq  int // payload sequence stamped by the sender
}

// mixHandler exercises every scheduling surface at once: sends, zero-delay
// timers, same-tick posts and far-future timers, each stamped so the exact
// interleave is observable.
type mixHandler struct {
	log *[]order
	n   int
}

func (h *mixHandler) Init(ctx *Context) {}

func (h *mixHandler) Receive(ctx *Context, env *Envelope) {
	*h.log = append(*h.log, order{T: ctx.Time(), Kind: env.Kind, Node: ctx.Self(), Seq: env.Payload.(int)})
	if len(*h.log) > 400 {
		return
	}
	h.n++
	// Deterministic pseudo-random fan-out: a mix of near sends, equal-time
	// timers and far-future timers (beyond the calendar window, to force the
	// heap fallback and its migration path).
	switch h.n % 4 {
	case 0:
		ctx.SendDir(grid.Direction(h.n%4), "send", h.n)
		ctx.After(0, "zero-timer", h.n)
	case 1:
		ctx.After(Time(h.n%7), "timer", h.n)
	case 2:
		ctx.SendDir(grid.Direction((h.n+1)%4), "send", h.n)
		ctx.SendDir(grid.Direction((h.n+2)%4), "send", h.n)
	case 3:
		ctx.After(wheelSize+Time(h.n%500), "far-timer", h.n)
	}
}

// runMix drives the mix workload over a network with the given options and
// returns the recorded event order.
func runMix(t *testing.T, opts Options) []order {
	t.Helper()
	m := mesh.New2D(4, 4)
	var log []order
	net := New(m, &mixHandler{log: &log}, opts)
	net.Post(grid.Point{X: 1, Y: 1}, "start", 0)
	net.Post(grid.Point{X: 2, Y: 2}, "start", 0)
	net.At(2, func() { log = append(log, order{T: net.Now(), Kind: "control", Seq: -1}) })
	net.At(wheelSize+100, func() { log = append(log, order{T: net.Now(), Kind: "control", Seq: -2}) })
	if _, err := net.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return log
}

// burstHandler makes every tick's bucket cross bigBucketCap by a varying
// amount: the one "drive" event of each tick schedules 128–2175 events for the
// next tick, link sends and one-tick timers alternating, a quarter as many
// timers spread over the three ticks after, and now and then one beyond the
// calendar window. The later buckets climb the big classes exactly, the
// frontier bucket adopts best-fitting parked arrays and regrows past them, and
// the parking of each class overflows, so every storage path runs under the
// order check.
type burstHandler struct {
	log         *[]order
	r           *rng.Rand
	drive, fill KindID
	ticks       Time
}

func (h *burstHandler) Init(ctx *Context) {}

func (h *burstHandler) Receive(ctx *Context, env *Envelope) {
	*h.log = append(*h.log, order{T: ctx.Time(), Kind: env.Kind, Node: ctx.Self(), Seq: int(env.Ref)})
	if env.KindID != h.drive || ctx.Time() >= h.ticks {
		return
	}
	n := bigBucketCap/2 + h.r.Intn(8*bigBucketCap)
	for i := int32(0); i < int32(n); i++ {
		if i%2 == 1 || !ctx.SendRef(grid.Direction(i%4), h.fill, i) {
			ctx.AfterRef(1, h.fill, i)
		}
	}
	for i := int32(0); i < int32(n/4); i++ {
		ctx.AfterRef(Time(2+i%3), h.fill, i)
	}
	ctx.AfterRef(1, h.drive, int32(n))
	if n%5 == 0 {
		ctx.AfterRef(wheelSize+Time(n%300), h.fill, int32(n))
	}
}

// runBurst drives the burst workload for 60 ticks and returns the recorded
// event order.
func runBurst(t *testing.T, opts Options) []order {
	t.Helper()
	var log []order
	h := &burstHandler{log: &log, r: rng.New(7), ticks: 60}
	net := New(mesh.New2D(4, 4), h, opts)
	h.drive, h.fill = net.Kind("drive"), net.Kind("fill")
	net.Post(grid.Point{X: 1, Y: 2}, "drive", nil)
	mustRun(t, net)
	if opts.farThreshold == 0 && net.slabs[0].queue.storage >= int(opts.Telemetry.Get(telemetry.SimBucketStoragePeak)) {
		t.Errorf("bucket storage never fell from its peak %d: the drop path did not run", net.slabs[0].queue.storage)
	}
	return log
}

// TestCalendarMatchesHeapOrder is the scheduler-equivalence regression test:
// the calendar queue must reproduce, event for event, the order produced by
// the pure binary-heap scheduler (farThreshold: 1 sends every event through
// the heap fallback, which pops in exactly the old heap's (time, seq) order).
func TestCalendarMatchesHeapOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*testing.T, Options) []order
	}{
		{"mix", runMix},
		{"burst", runBurst},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calendar := tc.run(t, Options{Telemetry: telemetry.NewSink()})
			heap := tc.run(t, Options{farThreshold: 1})
			if len(calendar) == 0 {
				t.Fatal("workload recorded no events")
			}
			if !reflect.DeepEqual(calendar, heap) {
				for i := range calendar {
					if i >= len(heap) || calendar[i] != heap[i] {
						t.Fatalf("event %d diverges: calendar=%+v heap=%+v", i, calendar[i], heap[i])
					}
				}
				t.Fatalf("calendar recorded %d events, heap %d", len(calendar), len(heap))
			}
		})
	}
}

// seqHandler records the interleave of equal-time events.
type seqHandler struct{ log *[]string }

func (seqHandler) Init(ctx *Context) {}

func (h seqHandler) Receive(ctx *Context, env *Envelope) {
	*h.log = append(*h.log, fmt.Sprintf("%s@%d", env.Kind, ctx.Time()))
	if env.Kind == "start" {
		// All three of these land on the same future tick; among equal times,
		// scheduling order must win regardless of event class.
		ctx.SendDir(grid.XPos, "send-a", nil) // scheduled 1st, t+1
		ctx.After(1, "timer-b", nil)          // scheduled 2nd, t+1
		ctx.SendDir(grid.YPos, "send-c", nil) // scheduled 3rd, t+1
	}
}

// TestEqualTimeOrderingAcrossEventClasses pins the tie-break discipline the
// paper experiments rely on: time first, then scheduling sequence — except
// that At control callbacks run first in their tick.
func TestEqualTimeOrderingAcrossEventClasses(t *testing.T) {
	m := mesh.New2D(3, 3)
	var log []string
	net := New(m, seqHandler{log: &log})
	net.Post(grid.Point{}, "start", nil)
	// The control callback runs before the three t=1 events the handler
	// schedules while the Post is delivered: control is first in its tick.
	net.At(1, func() { log = append(log, fmt.Sprintf("control@%d", net.Now())) })
	if _, err := net.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"start@0", "control@1", "send-a@1", "timer-b@1", "send-c@1"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("equal-time order = %v, want %v", log, want)
	}
}

// refHandler exercises the SendRef/AfterRef fast path.
type refHandler struct {
	kind  KindID
	seen  *[]int32
	limit int
}

func (h *refHandler) Init(ctx *Context) {}

func (h *refHandler) Receive(ctx *Context, env *Envelope) {
	if env.KindID != h.kind {
		return
	}
	*h.seen = append(*h.seen, env.Ref)
	if len(*h.seen) >= h.limit {
		return
	}
	ctx.SendRef(grid.XPos, h.kind, env.Ref+1)
}

func TestSendRefCarriesReferences(t *testing.T) {
	m := mesh.New2D(8, 1)
	var seen []int32
	h := &refHandler{seen: &seen, limit: 5}
	net := New(m, h)
	h.kind = net.Kind("ref")
	ctx := net.ContextOf(0)
	if !ctx.SendRef(grid.XPos, h.kind, 7) {
		t.Fatal("SendRef to a valid neighbour should succeed")
	}
	stats := mustRun(t, net)
	want := []int32{7, 8, 9, 10, 11}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("refs = %v, want %v", seen, want)
	}
	if stats.ByKind["ref"] != 5 {
		t.Errorf("ByKind[ref] = %d, want 5 (interned kinds must materialise in Stats)", stats.ByKind["ref"])
	}
}

func TestKindInterning(t *testing.T) {
	m := mesh.New2D(2, 2)
	net := New(m, floodHandler{})
	a := net.Kind("alpha")
	if net.Kind("alpha") != a {
		t.Error("interning the same kind twice must return the same ID")
	}
	if net.KindName(a) != "alpha" {
		t.Errorf("KindName(%d) = %q, want alpha", a, net.KindName(a))
	}
	if b := net.Kind("beta"); b == a {
		t.Error("distinct kinds must get distinct IDs")
	}
}

// TestStatsByKindTracksDeliveries: ByKind is built from the per-kind
// counters on every Stats call, so a read inside the run sees the counts so
// far and a read after it the final ones.
func TestStatsByKindTracksDeliveries(t *testing.T) {
	m := mesh.New2D(3, 3)
	net := New(m, pingPong{limit: 10})
	net.Post(grid.Point{X: 1, Y: 1}, "start", nil)
	var mid int
	net.At(3, func() { mid = net.Stats().ByKind["pong"] })
	mustRun(t, net)
	if end := net.Stats().ByKind["pong"]; end != 11 {
		t.Errorf("ByKind[pong] = %d, want 11", end)
	}
	if mid == 0 || mid >= 11 {
		t.Errorf("mid-run ByKind[pong] = %d, want the count so far (0 < n < 11)", mid)
	}
}

func TestQueueTelemetryCounters(t *testing.T) {
	m := mesh.New2D(4, 4)
	var log []order
	sink := telemetry.NewSink()
	net := New(m, &mixHandler{log: &log}, Options{Telemetry: sink})
	net.Post(grid.Point{X: 1, Y: 1}, "start", 0)
	mustRun(t, net)
	// The mix workload schedules far-future timers beyond the calendar window,
	// so both the heap fallback and its migration path must have fired.
	if sink.Get(telemetry.SimHeapEvents) == 0 {
		t.Error("SimHeapEvents = 0; far timers should have hit the heap fallback")
	}
	if sink.Get(telemetry.SimHeapMigrations) == 0 {
		t.Error("SimHeapMigrations = 0; heap events should have migrated into the ring")
	}
	if sink.Get(telemetry.SimBucketReuses) == 0 {
		t.Error("SimBucketReuses = 0; drained buckets should have been recycled")
	}
	if sink.Get(telemetry.SimBucketPeak) < 1 {
		t.Error("SimBucketPeak gauge never recorded an occupied bucket")
	}
	// Bucket storage starts with the first arena chunk and the gauge tracks
	// its running total, so the peak covers at least what is retained now.
	if got := sink.Get(telemetry.SimBucketStoragePeak); got < arenaChunk || got < int64(net.slabs[0].queue.storage) {
		t.Errorf("SimBucketStoragePeak = %d, want >= max(arenaChunk, retained %d)", got, net.slabs[0].queue.storage)
	}
}
