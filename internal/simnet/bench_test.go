package simnet

// Benchmarks for the event core: the calendar queue and the dense-ID delivery
// path, isolated from routing and traffic logic. The `events/sec` metric is
// the repository's north-star unit (see PERFORMANCE.md).

import (
	"testing"

	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
)

// chainHandler forwards a reference along +X, wrapping to the next row via a
// timer, for a fixed number of hops — pure event churn on the Ref fast path.
type chainHandler struct {
	kind  KindID
	hops  int
	limit int
}

func (h *chainHandler) Init(ctx *Context) {}

func (h *chainHandler) Receive(ctx *Context, env *Envelope) {
	h.hops++
	if h.hops >= h.limit {
		return
	}
	if !ctx.SendRef(grid.XPos, h.kind, env.Ref) {
		ctx.AfterRef(3, h.kind, env.Ref) // bounce off the wall after a pause
	}
}

// BenchmarkEventChurnRef measures raw enqueue/dequeue/deliver throughput of
// the calendar queue with value events and no payload boxing.
func BenchmarkEventChurnRef(b *testing.B) {
	m := mesh.New2D(64, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := &chainHandler{limit: 100_000}
		net := New(m, h, Options{MaxEvents: 200_000})
		h.kind = net.Kind("chain")
		net.Post(grid.Point{}, "chain", nil)
		stats, err := net.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(stats.Events), "events/op")
	}
}

// broadcastHandler floods boxed payloads — the slow (protocol) path with `any`
// boxing through the side table.
type broadcastHandler struct{ rounds int }

func (broadcastHandler) Init(ctx *Context) {}

func (h broadcastHandler) Receive(ctx *Context, env *Envelope) {
	n := env.Payload.(int)
	if n >= h.rounds {
		return
	}
	ctx.Broadcast("wave", n+1)
}

// BenchmarkEventChurnBoxed measures the boxed-payload path protocols use.
func BenchmarkEventChurnBoxed(b *testing.B) {
	m := mesh.New3D(8, 8, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net := New(m, broadcastHandler{rounds: 6}, Options{MaxEvents: 2_000_000})
		net.Post(grid.Point{X: 4, Y: 4, Z: 4}, "wave", 0)
		stats, err := net.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(stats.Events), "events/op")
	}
}

// timerHeavyHandler schedules far-future timers so the heap fallback and its
// migration path are exercised, not just the ring.
type timerHeavyHandler struct{ fired, limit int }

func (h *timerHeavyHandler) Init(ctx *Context) {}

func (h *timerHeavyHandler) Receive(ctx *Context, env *Envelope) {
	h.fired++
	if h.fired >= h.limit {
		return
	}
	// Alternate near ring hits and far heap hits.
	if h.fired%2 == 0 {
		ctx.After(5, "t", nil)
	} else {
		ctx.After(wheelSize+100, "t", nil)
	}
}

// BenchmarkFarTimerMigration measures the heap-fallback round trip.
func BenchmarkFarTimerMigration(b *testing.B) {
	m := mesh.New2D(2, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := &timerHeavyHandler{limit: 20_000}
		net := New(m, h, Options{MaxEvents: 100_000})
		net.Post(grid.Point{}, "t", nil)
		if _, err := net.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCalendarBurst runs the synthetic 32³-shaped load of
// TestCalendarStorageBounded (2000 ticks of burstBase±50% deliveries plus
// scattered timers) through a bare calendar queue: the event core's B/op
// without a full 32³ traffic trial.
func BenchmarkCalendarBurst(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var q calendarQueue
		q.init()
		burstLoad(&q, 2000, nil)
		b.ReportMetric(float64(q.storage), "storage-events/op")
	}
}
