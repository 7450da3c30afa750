package simnet

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
	"mccmesh/internal/rng"
)

// floodStats runs the flood protocol over a fresh faulted mesh on the given
// number of slabs and returns the merged statistics plus every node's
// first-seen time keyed by dense ID.
func floodStats(t *testing.T, shards int) (Stats, map[int]Time) {
	t.Helper()
	m := mesh.New3D(6, 6, 6)
	m.AddFaults(grid.Point{X: 1, Y: 1, Z: 1}, grid.Point{X: 4, Y: 2, Z: 3})
	return floodRun(t, m, shards, grid.Point{}, nil)
}

// floodRun floods a token from origin over m on up to shards slabs, with the
// control callbacks schedule registers, and returns the statistics plus every
// node's first-seen time keyed by dense ID.
func floodRun(t *testing.T, m *mesh.Mesh, shards int, origin grid.Point, schedule func(*Network)) (Stats, map[int]Time) {
	t.Helper()
	net := newSlabNet(m, shards, floodHandler{}, Options{})
	net.Post(origin, "flood", "token")
	if schedule != nil {
		schedule(net)
	}
	stats, err := net.Run()
	if err != nil {
		t.Fatalf("Run on %d slabs: %v", shards, err)
	}
	seen := make(map[int]Time)
	m.ForEach(func(p grid.Point) {
		if at, ok := net.Store(p)["seen"]; ok {
			seen[int(m.ID(p))] = at.(Time)
		}
	})
	return stats, seen
}

// newSlabNet builds a network over up to shards slabs, every slab running
// the (stateless) handler h.
func newSlabNet(m *mesh.Mesh, shards int, h Handler, opts Options) *Network {
	slabs := mesh.SlabPartition(m, shards)
	handlers := make([]Handler, len(slabs))
	for i := range handlers {
		handlers[i] = h
	}
	return NewSlabs(m, handlers, slabs, opts)
}

// TestShardedFloodMatchesSequential is the engine-level parity check: the
// flood protocol — every delivery, every drop, every per-node first-seen time
// — is bit-identical between one slab and several. Sharding must change
// wall-clock behaviour only.
func TestShardedFloodMatchesSequential(t *testing.T) {
	wantStats, wantSeen := floodStats(t, 1)
	if wantStats.Delivered == 0 {
		t.Fatal("sequential flood delivered nothing; the reference is broken")
	}
	for _, shards := range []int{2, 3, 6} {
		gotStats, gotSeen := floodStats(t, shards)
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Errorf("%d shards: stats = %+v, want %+v", shards, gotStats, wantStats)
		}
		if !reflect.DeepEqual(gotSeen, wantSeen) {
			t.Errorf("%d shards: per-node first-seen times diverge from the sequential run", shards)
		}
	}
}

// FuzzShardedParity is the sharded ≡ sequential contract at the driver level:
// on a random mesh up to 6³ with random faults, and control callbacks that
// fail or repair nodes while the flood runs, a run on 2–6 slabs must
// reproduce the one-slab run's Stats and every node's first-seen tick.
func FuzzShardedParity(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(5), uint8(5), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, nx, ny, nz, shards uint8) {
		x, y, z := 1+int(nx)%6, 1+int(ny)%6, 1+int(nz)%6
		run := func(shards int) (Stats, map[int]Time) {
			r := rng.New(seed)
			m := mesh.New3D(x, y, z)
			n := m.NodeCount()
			for i := r.Intn(n/4 + 1); i > 0; i-- {
				m.SetFaulty(m.Point(r.Intn(n)), true)
			}
			origin := m.Point(r.Intn(n))
			m.SetFaulty(origin, false)
			return floodRun(t, m, shards, origin, func(net *Network) {
				for i := r.Intn(9); i > 0; i-- {
					at, p, fail := Time(r.Intn(x+y+z)), m.Point(r.Intn(n)), r.Bool()
					net.At(at, func() { m.SetFaulty(p, fail) })
				}
			})
		}
		shardCount := 2 + int(shards)%5
		wantStats, wantSeen := run(1)
		gotStats, gotSeen := run(shardCount)
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Errorf("%d slabs on %dx%dx%d: stats = %+v, want %+v", shardCount, x, y, z, gotStats, wantStats)
		}
		if !reflect.DeepEqual(gotSeen, wantSeen) {
			t.Errorf("%d slabs on %dx%dx%d: first-seen ticks %v, want %v", shardCount, x, y, z, gotSeen, wantSeen)
		}
	})
}

// TestShardedControlOrdering pins the coordinator's control contract on
// several slabs: At callbacks fire at their tick in scheduling order, before
// that tick's deliveries, and are counted into Stats (Control and Events).
func TestShardedControlOrdering(t *testing.T) {
	m := mesh.New3D(4, 4, 4)
	sn := newSlabNet(m, 2, floodHandler{}, Options{})

	var order []int
	sn.At(5, func() { order = append(order, 1) })
	sn.At(3, func() { order = append(order, 0) })
	sn.At(5, func() { order = append(order, 2) })
	sn.Post(grid.Point{}, "flood", "x")

	stats, err := sn.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(order, want) {
		t.Errorf("control callbacks ran in order %v, want %v (time first, then scheduling order)", order, want)
	}
	if stats.Control != 3 {
		t.Errorf("Stats.Control = %d, want 3", stats.Control)
	}
	if stats.Events != stats.Delivered+stats.Dropped+stats.Control {
		t.Errorf("Events = %d, want Delivered(%d) + Dropped(%d) + Control(%d)",
			stats.Events, stats.Delivered, stats.Dropped, stats.Control)
	}
}

// TestShardedZeroLookaheadGuard: the barrier cannot order a cross-shard event
// landing at the current tick, so the exchange must fail loudly instead of
// silently reordering it.
func TestShardedZeroLookaheadGuard(t *testing.T) {
	m := mesh.New3D(4, 4, 4)
	sn := newSlabNet(m, 2, floodHandler{}, Options{})
	// Forge a same-tick cross-shard event: Post is self-addressed, so reach
	// into the outbox machinery directly with a doctored destination.
	sn.slabs[0].outbox = append(sn.slabs[0].outbox, event{time: 0, to: sn.slabs[1].lo})
	defer func() {
		if recover() == nil {
			t.Error("exchange of a same-tick cross-shard event did not panic")
		}
	}()
	sn.exchange()
}

// idRecord is one delivery as an envelopeIDHandler saw it.
type idRecord struct {
	kind           string
	from, to, self int32
}

// envelopeIDHandler records every delivery. On "start" it sends one message
// of every send primitive: to +Z (across a slab boundary when the mesh is cut
// into layers) with Send and SendRef, to +X (inside the slab) with SendDir,
// and to itself with After and AfterRef.
type envelopeIDHandler struct {
	refKind KindID
	got     []idRecord
}

func (h *envelopeIDHandler) Init(*Context) {}

func (h *envelopeIDHandler) Receive(ctx *Context, env *Envelope) {
	h.got = append(h.got, idRecord{env.Kind, env.FromID, env.ToID, ctx.SelfID()})
	if ctx.Self() != ctx.Mesh().Point(int(env.ToID)) {
		panic(fmt.Sprintf("Self() = %v at node %d", ctx.Self(), env.ToID))
	}
	if env.Kind != "start" {
		return
	}
	ctx.Send(grid.Step(ctx.Self(), grid.ZPos), "send", nil)
	ctx.SendDir(grid.XPos, "sendDir", nil)
	ctx.SendRef(grid.ZPos, h.refKind, 1)
	ctx.After(1, "after", nil)
	ctx.AfterRef(2, h.refKind, 2)
}

// TestEnvelopeIDsNameSenderAndReceiver checks that every send primitive
// delivers an envelope whose FromID is the sender and whose ToID — and the
// handler context's SelfID — is the receiver, on one slab and on three (one
// per Z-layer, so the +Z sends cross slabs), and that ContextOf and ShardOf
// name the slab owning a node.
func TestEnvelopeIDsNameSenderAndReceiver(t *testing.T) {
	m := mesh.New3D(3, 3, 3)
	starts := []grid.Point{{X: 0, Y: 1, Z: 0}, {X: 1, Y: 2, Z: 1}}
	var want []idRecord
	for _, p := range starts {
		u, x, z := m.ID(p), m.ID(grid.Step(p, grid.XPos)), m.ID(grid.Step(p, grid.ZPos))
		want = append(want,
			idRecord{"start", u, u, u},
			idRecord{"send", u, z, z},
			idRecord{"sendDir", u, x, x},
			idRecord{"ref", u, z, z},
			idRecord{"after", u, u, u},
			idRecord{"ref", u, u, u},
		)
	}
	sortRecords := func(rs []idRecord) {
		sort.Slice(rs, func(i, j int) bool { return fmt.Sprint(rs[i]) < fmt.Sprint(rs[j]) })
	}
	sortRecords(want)
	for _, shards := range []int{1, 3} {
		ranges := mesh.SlabPartition(m, shards)
		hs := make([]*envelopeIDHandler, len(ranges))
		handlers := make([]Handler, len(ranges))
		for i := range hs {
			hs[i] = &envelopeIDHandler{}
			handlers[i] = hs[i]
		}
		net := NewSlabs(m, handlers, ranges, Options{})
		refKind := net.Kind("ref")
		for _, h := range hs {
			h.refKind = refKind
		}
		for _, p := range starts {
			net.Post(p, "start", nil)
		}
		mustRun(t, net)
		var got []idRecord
		for s, h := range hs {
			for _, r := range h.got {
				if r.to < ranges[s].Lo || r.to >= ranges[s].Hi {
					t.Errorf("%d slabs: slab %d delivered %+v to a node it does not own", shards, s, r)
				}
			}
			got = append(got, h.got...)
		}
		sortRecords(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d slabs: deliveries\n got %+v\nwant %+v", shards, got, want)
		}
		for s, r := range ranges {
			for id := r.Lo; id < r.Hi; id++ {
				if got := net.ShardOf(id); got != s {
					t.Errorf("%d slabs: ShardOf(%d) = %d, want %d", shards, id, got, s)
				}
				if ctx := net.ContextOf(id); ctx.SelfID() != id || ctx.sl != net.slabs[s] {
					t.Errorf("%d slabs: ContextOf(%d) is node %d on slab %d, want slab %d", shards, id, ctx.SelfID(), ctx.sl.idx, s)
				}
			}
		}
	}
}
