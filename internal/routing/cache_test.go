package routing

// White-box tests for the epoch-versioned, destination-ID-indexed field
// cache: epoch invalidation must be lazy and exact, eviction must drop one
// entry (never the whole cache) and never change answers.

import (
	"testing"

	"mccmesh/internal/fault"
	"mccmesh/internal/grid"
	"mccmesh/internal/labeling"
	"mccmesh/internal/mesh"
	"mccmesh/internal/region"
	"mccmesh/internal/rng"
)

// TestFieldCacheEpochInvalidation: after a fault injection flows through the
// incremental update path (AddFaults + Refresh + InvalidateCache), every
// decision must match a provider built from scratch over the same mesh —
// and stale entries must be rebuilt in place, reusing their Field storage.
func TestFieldCacheEpochInvalidation(t *testing.T) {
	m := mesh.NewCube(8)
	fault.Uniform{Count: 20}.Inject(m, rng.New(3))
	lab := labeling.Compute(m, grid.PositiveOrientation)
	set := region.FindMCCs(lab)
	prov := &MCC{Set: set}

	// Warm the cache over a query set.
	type q struct{ u, v, d int32 }
	var queries []q
	r := rng.New(9)
	for len(queries) < 200 {
		u := m.Point(r.Intn(m.NodeCount()))
		d := m.Point(r.Intn(m.NodeCount()))
		if u == d || m.IsFaulty(u) || m.IsFaulty(d) {
			continue
		}
		orient := grid.OrientationOf(u, d)
		for _, a := range m.Axes() {
			if u.Axis(a) == d.Axis(a) {
				continue
			}
			if v, ok := m.Neighbor(u, orient.Forward(a)); ok && !m.IsFaulty(v) {
				queries = append(queries, q{m.ID(u), m.ID(v), m.ID(d)})
			}
		}
	}
	for _, qq := range queries {
		prov.AllowedID(qq.u, qq.v, qq.d)
	}

	// Remember the field pointer of a destination we know is cached.
	probe := queries[0]
	probeID := probe.d
	before := prov.cache.slots[probeID].field
	if before == nil {
		t.Fatal("probe destination not cached after warmup")
	}

	// Inject a fault and push it through the incremental path.
	var injected int32
	for {
		idx := r.Intn(m.NodeCount())
		if !m.FaultyAt(idx) {
			injected = int32(idx)
			m.SetFaulty(m.Point(idx), true)
			break
		}
	}
	lab.AddFaults([]grid.Point{m.Point(int(injected))})
	set.Refresh()
	prov.InvalidateCache()

	// Every answer must now match a from-scratch provider.
	freshSet := region.FindMCCs(labeling.Compute(m, grid.PositiveOrientation))
	fresh := &MCC{Set: freshSet}
	for _, qq := range queries {
		if qq.v == injected || qq.u == injected || qq.d == injected {
			continue // the query premise (healthy endpoints) changed
		}
		got := prov.AllowedID(qq.u, qq.v, qq.d)
		want := fresh.AllowedID(qq.u, qq.v, qq.d)
		if got != want {
			t.Fatalf("after epoch invalidation: AllowedID(%v, %v, %v) = %v, fresh provider says %v",
				qq.u, qq.v, qq.d, got, want)
		}
	}
	// The probe's slot must have been rebuilt in place: same Field object,
	// fresh epoch — that is the storage reuse the epoch scheme buys.
	if probe.d != injected {
		after := prov.cache.slots[probeID].field
		if after == nil {
			t.Fatal("probe destination dropped instead of rebuilt")
		}
		if after != before {
			t.Errorf("stale field was reallocated, not rebuilt in place")
		}
		if prov.cache.slots[probeID].epoch != prov.cache.epoch {
			t.Errorf("probe slot not stamped with the current epoch")
		}
	}
}

// TestFieldCacheEvictsOneEntry: filling a provider with more destinations
// than fieldCacheMax must evict oldest entries one at a time — the live count
// stays at the cap, early destinations are gone, late ones survive — and
// evicted destinations still answer correctly (they just rebuild).
func TestFieldCacheEvictsOneEntry(t *testing.T) {
	m := mesh.NewCube(17) // 4913 nodes > fieldCacheMax
	o := &Oracle{Mesh: m}
	n := m.NodeCount()
	if n <= fieldCacheMax {
		t.Fatalf("test mesh too small to overflow the cache: %d <= %d", n, fieldCacheMax)
	}
	// Touch every node as a destination, with the neighbouring source so each
	// field is tiny.
	for idx := 0; idx < n; idx++ {
		d := m.Point(idx)
		u, ok := m.Neighbor(d, grid.XPos)
		if !ok {
			u, _ = m.Neighbor(d, grid.XNeg)
		}
		if uID := m.ID(u); !o.AllowedID(uID, uID, int32(idx)) {
			t.Fatalf("fault-free mesh: AllowedID(%v, %v, %v) must hold", u, u, d)
		}
	}
	live := 0
	for _, s := range o.cache.slots {
		if s.field != nil {
			live++
		}
	}
	if live != fieldCacheMax {
		t.Fatalf("live entries = %d, want exactly the cap %d (one-at-a-time eviction)", live, fieldCacheMax)
	}
	// The first destinations were evicted, the last ones survived.
	firstID := int32(0)
	if o.cache.slots[firstID].field != nil {
		t.Errorf("oldest destination still cached after overflow")
	}
	if o.cache.slots[n-1].field == nil {
		t.Errorf("newest destination missing from the cache")
	}
	// An evicted destination still answers, and re-caches.
	d := m.Point(0)
	u, _ := m.Neighbor(d, grid.XPos)
	if uID := m.ID(u); !o.AllowedID(uID, uID, 0) {
		t.Fatalf("evicted destination answers wrong after rebuild")
	}
	if o.cache.slots[0].field == nil {
		t.Errorf("evicted destination was not re-cached on demand")
	}
}

// TestFieldCacheEpochInvalidationOnRepair is the repair-side mirror of
// TestFieldCacheEpochInvalidation: after a fault repair flows through the
// incremental update path (labeling.RemoveFaults + Refresh + InvalidateCache),
// every decision must match a provider built from scratch over the repaired
// mesh. Repairs *open* directions that were excluded before, so a stale field
// that survived the epoch bump would be visible as an over-restrictive answer.
func TestFieldCacheEpochInvalidationOnRepair(t *testing.T) {
	m := mesh.NewCube(8)
	placed := fault.Uniform{Count: 30}.Inject(m, rng.New(5))
	lab := labeling.Compute(m, grid.PositiveOrientation)
	set := region.FindMCCs(lab)
	prov := &MCC{Set: set}

	type q struct{ u, v, d int32 }
	var queries []q
	r := rng.New(17)
	for len(queries) < 200 {
		u := m.Point(r.Intn(m.NodeCount()))
		d := m.Point(r.Intn(m.NodeCount()))
		if u == d || m.IsFaulty(u) || m.IsFaulty(d) {
			continue
		}
		orient := grid.OrientationOf(u, d)
		for _, a := range m.Axes() {
			if u.Axis(a) == d.Axis(a) {
				continue
			}
			if v, ok := m.Neighbor(u, orient.Forward(a)); ok && !m.IsFaulty(v) {
				queries = append(queries, q{m.ID(u), m.ID(v), m.ID(d)})
			}
		}
	}
	for _, qq := range queries {
		prov.AllowedID(qq.u, qq.v, qq.d)
	}

	// Repair a third of the faults through the incremental path.
	repaired := placed[:len(placed)/3]
	m.RemoveFaults(repaired...)
	lab.RemoveFaults(repaired)
	set.Refresh()
	prov.InvalidateCache()

	freshSet := region.FindMCCs(labeling.Compute(m, grid.PositiveOrientation))
	fresh := &MCC{Set: freshSet}
	for _, qq := range queries {
		got := prov.AllowedID(qq.u, qq.v, qq.d)
		want := fresh.AllowedID(qq.u, qq.v, qq.d)
		if got != want {
			t.Fatalf("after repair invalidation: AllowedID(%v, %v, %v) = %v, fresh provider says %v",
				qq.u, qq.v, qq.d, got, want)
		}
	}

	// The oracle takes the same epoch bump on repair; check it against a fresh
	// oracle over the repaired mesh (the live mesh is its source of truth).
	o := &Oracle{Mesh: m}
	for _, qq := range queries {
		o.AllowedID(qq.u, qq.v, qq.d)
	}
	m.RemoveFaults(placed[len(placed)/3 : 2*len(placed)/3]...)
	o.InvalidateCache()
	freshO := &Oracle{Mesh: m}
	for _, qq := range queries {
		if got, want := o.AllowedID(qq.u, qq.v, qq.d), freshO.AllowedID(qq.u, qq.v, qq.d); got != want {
			t.Fatalf("oracle after repair: AllowedID(%v, %v, %v) = %v, fresh oracle says %v", qq.u, qq.v, qq.d, got, want)
		}
	}
}
