package routing

// White-box tests for the destination-ID-indexed field cache: invalidation
// must be scoped and exact — fields the fault change cannot reach stay live
// untouched, the others are re-swept in place — and eviction must drop one
// entry (never the whole cache) and never change answers.

import (
	"slices"
	"testing"
	"unsafe"

	"mccmesh/internal/fault"
	"mccmesh/internal/grid"
	"mccmesh/internal/labeling"
	"mccmesh/internal/mesh"
	"mccmesh/internal/minimal"
	"mccmesh/internal/region"
	"mccmesh/internal/rng"
)

// slotSnap is one live slot as it stood before an invalidation.
type slotSnap struct {
	field *minimal.Field
	box   grid.Box
	base  *uint64  // first word of the field's storage
	words []uint64 // copy of the bitset
}

func snapshotSlots(c *fieldCache) map[int32]slotSnap {
	out := make(map[int32]slotSnap)
	for _, id := range c.order[c.head:] {
		if f := c.slots[id].field; f != nil {
			w := f.BitWords()
			out[id] = slotSnap{f, f.Box(), &w[0], append([]uint64(nil), w...)}
		}
	}
	return out
}

// freshWords is the bitset a from-scratch sweep over box toward d produces.
func freshWords(m *mesh.Mesh, avoid []uint64, box grid.Box, d grid.Point) []uint64 {
	src := grid.Point{X: box.Min.X + box.Max.X - d.X, Y: box.Min.Y + box.Max.Y - d.Y, Z: box.Min.Z + box.Max.Z - d.Z}
	return minimal.ReachabilityWordsInto(nil, m, avoid, src, d).BitWords()
}

// scopeTally counts what scoped invalidation did to a cache's live fields.
type scopeTally struct{ untouched, reswept, rebuilt int }

// checkUntouched runs right after InvalidateCache: every live slot left
// without a pending cut must hold the same field with the same words, and
// those words must equal a fresh sweep over the live obstacles avoid — the
// scoping skipped no field the change reached.
func checkUntouched(t *testing.T, c *fieldCache, m *mesh.Mesh, avoid []uint64, before map[int32]slotSnap, tally *scopeTally) {
	t.Helper()
	for id, b := range before {
		s := &c.slots[id]
		if s.cutY != noCut {
			continue
		}
		tally.untouched++
		if s.field != b.field || !slices.Equal(s.field.BitWords(), b.words) {
			t.Fatalf("untouched slot %d changed on invalidation", id)
		}
		if !slices.Equal(b.words, freshWords(m, avoid, b.box, m.Point(int(id)))) {
			t.Fatalf("slot %d left live, but the fault change reached its box %v", id, b.box)
		}
	}
}

// observe runs call, a decision toward destination id, and when id's slot was
// stale classifies what the lookup did to it: re-swept in place (same field,
// box and storage; the lookup's point was inside the box) or fully rebuilt
// over a new box (it was not). Either way the field must then equal a fresh
// sweep over the live obstacles avoid.
func observe(t *testing.T, c *fieldCache, m *mesh.Mesh, avoid []uint64, id int32, tally *scopeTally, call func() uint8) uint8 {
	t.Helper()
	if c.slots == nil {
		return call()
	}
	s := &c.slots[id]
	f := s.field
	if f == nil || s.cutY == noCut {
		return call()
	}
	box, base := f.Box(), &f.BitWords()[0]
	out := call()
	if s.cutY != noCut {
		t.Fatalf("stale slot %d still stale after a lookup", id)
	}
	if s.field.Box() == box {
		if s.field != f || &s.field.BitWords()[0] != base {
			t.Fatalf("stale slot %d was reallocated, not re-swept in place", id)
		}
		tally.reswept++
	} else {
		tally.rebuilt++
	}
	if !slices.Equal(s.field.BitWords(), freshWords(m, avoid, s.field.Box(), m.Point(int(id)))) {
		t.Fatalf("slot %d after its re-sweep differs from a fresh sweep over %v", id, s.field.Box())
	}
	return out
}

// maskOf is p's decision for the hop u → d.
func maskOf(p Provider, m *mesh.Mesh, u, d int32) uint8 {
	return p.CandidateMaskID(m, u, m.Point(int(u)), d, m.Point(int(d)))
}

// TestFieldSlotIsOneCacheLine: the pending cut fits in bytes the slot would
// otherwise pad, so a decision hit touches one 64-byte line of the slot
// table.
func TestFieldSlotIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(fieldSlot{}); n != 64 {
		t.Fatalf("fieldSlot is %d bytes, want 64", n)
	}
}

// TestFieldCacheEpochInvalidation: after a fault injection flows through the
// incremental update path (AddFaults + Refresh + InvalidateCache), every
// decision must match a provider built from scratch over the same mesh.
// Fields the change cannot reach stay live untouched; the ones it reaches are
// re-swept in place, reusing their Field storage.
func TestFieldCacheEpochInvalidation(t *testing.T) {
	m := mesh.NewCube(8)
	fault.Uniform{Count: 20}.Inject(m, rng.New(3))
	lab := labeling.Compute(m, grid.PositiveOrientation)
	set := region.FindMCCs(lab)
	prov := NewMCC(set)

	// Warm the cache over a query set: the decision at u toward d for each
	// healthy forward neighbour v.
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
		maskOf(prov, m, qq.u, qq.d)
	}

	before := snapshotSlots(&prov.cache)
	if before[queries[0].d].field == nil {
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
	var tally scopeTally
	checkUntouched(t, &prov.cache, m, set.UnionAvoidWords(), before, &tally)

	// Every answer must now match a from-scratch provider.
	freshSet := region.FindMCCs(labeling.Compute(m, grid.PositiveOrientation))
	fresh := NewMCC(freshSet)
	for _, qq := range queries {
		if qq.v == injected || qq.u == injected || qq.d == injected {
			continue // the query premise (healthy endpoints) changed
		}
		got := observe(t, &prov.cache, m, set.UnionAvoidWords(), qq.d, &tally, func() uint8 { return maskOf(prov, m, qq.u, qq.d) })
		if want := maskOf(fresh, m, qq.u, qq.d); got != want {
			t.Fatalf("after epoch invalidation: decision (%v -> %v) = %06b, fresh provider says %06b",
				qq.u, qq.d, got, want)
		}
	}
	// Touched slots were re-swept in place — the storage reuse the scoped
	// scheme buys — and untouched ones were never stale.
	if tally.untouched == 0 || tally.reswept == 0 {
		t.Errorf("want untouched and re-swept slots, got %+v", tally)
	}
}

// TestFieldCacheEvictsOneEntry: filling a provider with more destinations
// than fieldCacheMax must evict oldest entries one at a time — the live count
// stays at the cap, early destinations are gone, late ones survive — and
// evicted destinations still answer correctly (they just rebuild).
func TestFieldCacheEvictsOneEntry(t *testing.T) {
	m := mesh.NewCube(17) // 4913 nodes > fieldCacheMax
	o := NewOracle(m)
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
		uID := m.ID(u)
		if got, want := maskOf(o, m, uID, int32(idx)), ReferenceMask(m, nil, true, uID, int32(idx)); got != want || got == 0 {
			t.Fatalf("fault-free mesh: decision (%v -> %v) = %06b, want the step onto d (%06b)", u, d, got, want)
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
	if uID := m.ID(u); maskOf(o, m, uID, 0) != ReferenceMask(m, nil, true, uID, 0) {
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
	prov := NewMCC(set)

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
		maskOf(prov, m, qq.u, qq.d)
	}

	// Repair a third of the faults through the incremental path.
	before := snapshotSlots(&prov.cache)
	repaired := placed[:len(placed)/3]
	m.RemoveFaults(repaired...)
	lab.RemoveFaults(repaired)
	set.Refresh()
	prov.InvalidateCache()
	var tally scopeTally
	checkUntouched(t, &prov.cache, m, set.UnionAvoidWords(), before, &tally)

	freshSet := region.FindMCCs(labeling.Compute(m, grid.PositiveOrientation))
	fresh := NewMCC(freshSet)
	for _, qq := range queries {
		got := observe(t, &prov.cache, m, set.UnionAvoidWords(), qq.d, &tally, func() uint8 { return maskOf(prov, m, qq.u, qq.d) })
		if want := maskOf(fresh, m, qq.u, qq.d); got != want {
			t.Fatalf("after repair invalidation: decision (%v -> %v) = %06b, fresh provider says %06b",
				qq.u, qq.d, got, want)
		}
	}
	if tally.reswept == 0 {
		t.Errorf("no touched slot was re-swept in place: %+v", tally)
	}

	// The oracle takes the same scoped invalidation on repair; check it
	// against a fresh oracle over the repaired mesh (the live mesh is its
	// source of truth).
	o := NewOracle(m)
	for _, qq := range queries {
		maskOf(o, m, qq.u, qq.d)
	}
	beforeO := snapshotSlots(&o.cache)
	m.RemoveFaults(placed[len(placed)/3 : 2*len(placed)/3]...)
	o.InvalidateCache()
	checkUntouched(t, &o.cache, m, m.FaultyWords(), beforeO, &tally)
	freshO := NewOracle(m)
	for _, qq := range queries {
		got := observe(t, &o.cache, m, m.FaultyWords(), qq.d, &tally, func() uint8 { return maskOf(o, m, qq.u, qq.d) })
		if want := maskOf(freshO, m, qq.u, qq.d); got != want {
			t.Fatalf("oracle after repair: decision (%v -> %v) = %06b, fresh oracle says %06b", qq.u, qq.d, got, want)
		}
	}
}

// TestScopedInvalidationMatchesFresh drives MCC and Oracle providers through
// seeded fail/repair schedules — single nodes and region clusters, repaired
// in random order — on random 8³–12³ meshes, through the incremental update
// path (labeling.AddFaults/RemoveFaults, Refresh, InvalidateCache). After
// every event their CandidateMaskID answers over a fixed query set, preceded
// by a few roaming sources, must equal those of freshly built providers, on
// the miss path and on the hit path that follows it; untouched fields must be
// exact as they stand, and stale ones exact after their re-sweep. Against a
// vacuous pass, each of the three outcomes — kept untouched, re-swept in
// place, fully rebuilt — must happen at least once.
func TestScopedInvalidationMatchesFresh(t *testing.T) {
	type q struct{ u, d int32 }
	var tally scopeTally
	for _, seed := range []uint64{1, 7, 42} {
		r := rng.New(seed)
		m := mesh.New3D(8+r.Intn(5), 8+r.Intn(5), 8+r.Intn(5))
		fault.Uniform{Count: m.NodeCount() / 40}.Inject(m, r)
		lab := labeling.Compute(m, grid.PositiveOrientation)
		set := region.FindMCCs(lab)
		mcc := NewMCC(set)
		oracle := NewOracle(m)

		// One query per unresolved axis, as many as the per-direction form
		// of this test put.
		var queries []q
		for len(queries) < 300 {
			u, d := r.Intn(m.NodeCount()), r.Intn(m.NodeCount())
			if u == d {
				continue
			}
			uP, dP := m.Point(u), m.Point(d)
			for _, a := range m.Axes() {
				if uP.Axis(a) != dP.Axis(a) {
					queries = append(queries, q{int32(u), int32(d)})
				}
			}
		}
		// ask puts qq to p twice, the second time on the hit path the first
		// leaves behind; with avoid set, each lookup is observed.
		ask := func(p *FieldProvider, avoid []uint64, qq q) (uint8, uint8) {
			mask := func() uint8 { return maskOf(p, m, qq.u, qq.d) }
			if avoid == nil {
				return mask(), mask()
			}
			return observe(t, &p.cache, m, avoid, qq.d, &tally, mask), observe(t, &p.cache, m, avoid, qq.d, &tally, mask)
		}
		for _, qq := range queries {
			ask(mcc, set.UnionAvoidWords(), qq)
			ask(oracle, m.FaultyWords(), qq)
		}

		var groups [][]grid.Point
		for ev := 0; ev < 30; ev++ {
			beforeM, beforeO := snapshotSlots(&mcc.cache), snapshotSlots(&oracle.cache)
			if len(groups) == 0 || r.Intn(5) < 3 {
				var placed []grid.Point
				if r.Intn(2) == 0 {
					placed = fault.Uniform{Count: 1}.Inject(m, r)
				} else {
					placed = fault.Clustered{Clusters: 1, Size: 2 + r.Intn(4)}.Inject(m, r)
				}
				lab.AddFaults(placed)
				groups = append(groups, placed)
			} else {
				k := r.Intn(len(groups))
				g := groups[k]
				groups = append(groups[:k], groups[k+1:]...)
				m.RemoveFaults(g...)
				lab.RemoveFaults(g)
			}
			set.Refresh()
			mcc.InvalidateCache()
			oracle.InvalidateCache()
			checkUntouched(t, &mcc.cache, m, set.UnionAvoidWords(), beforeM, &tally)
			checkUntouched(t, &oracle.cache, m, m.FaultyWords(), beforeO, &tally)

			// A few roaming sources toward already-cached destinations come
			// first: one outside a stale field's box forces the full rebuild.
			roam := queries[:0:0]
			for len(roam) < 20 {
				qq := queries[r.Intn(len(queries))]
				qq.u = int32(r.Intn(m.NodeCount()))
				if qq.u != qq.d {
					roam = append(roam, qq)
				}
			}
			freshMCC := NewMCC(region.FindMCCs(labeling.Compute(m, grid.PositiveOrientation)))
			freshOracle := NewOracle(m)
			for _, qq := range append(roam, queries...) {
				gotM, hitM := ask(mcc, set.UnionAvoidWords(), qq)
				gotO, hitO := ask(oracle, m.FaultyWords(), qq)
				wantM, wantHitM := ask(freshMCC, nil, qq)
				wantO, wantHitO := ask(freshOracle, nil, qq)
				if gotM != wantM || hitM != wantHitM || gotO != wantO || hitO != wantHitO {
					t.Fatalf("seed %d event %d: query %v answers mcc (%06b, %06b) oracle (%06b, %06b), fresh providers mcc (%06b, %06b) oracle (%06b, %06b)",
						seed, ev, qq, gotM, hitM, gotO, hitO, wantM, wantHitM, wantO, wantHitO)
				}
			}
		}
	}
	if tally.untouched == 0 || tally.reswept == 0 || tally.rebuilt == 0 {
		t.Fatalf("a scoping outcome never happened: %+v", tally)
	}
	t.Logf("slots kept untouched %d, re-swept in place %d, rebuilt %d", tally.untouched, tally.reswept, tally.rebuilt)
}
