package routing

// White-box tests for the sparse exception tables: invalidation must be
// scoped and exact — octants the fault change cannot reach stay as they are,
// the others are dropped and swept again when next needed — and the table
// keeps every destination, within its stated byte bound.

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
	"mccmesh/internal/telemetry"
)

// entrySnap is one built entry as it stood before an invalidation.
type entrySnap struct {
	built uint8
	list  []int32
}

func list(c *fieldCache, d int32) []int32 {
	s := c.slots[d]
	return c.exc[s.off : s.off+s.n]
}

func snapshotTable(c *fieldCache) map[int32]entrySnap {
	out := make(map[int32]entrySnap)
	for d, head := range c.heads {
		if built := uint8(head); built != 0 {
			out[int32(d)] = entrySnap{built, slices.Clone(list(c, int32(d)))}
		}
	}
	return out
}

// freshList is d's exception list a from-scratch sweep of the octants built
// produces over avoid.
func freshList(m *mesh.Mesh, avoid []uint64, d int32, built uint8) []int32 {
	c := fieldCache{}
	c.init(m, avoid)
	dPt := m.Point(int(d))
	var out []int32
	for k := 0; k < 8; k++ {
		if built&(1<<uint(k)) != 0 {
			f := minimal.ReachabilityWordsInto(nil, m, avoid, c.corner(k), dPt)
			out = f.AppendBlocked(out, avoid)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// headFlags is the list-flag half of a head over list toward d.
func headFlags(m *mesh.Mesh, d int32, list []int32) uint16 {
	var f uint16
	for _, v := range list {
		f |= planes(m.Point(int(v)), m.Point(int(d)))
	}
	return f
}

// checkEntry asserts that d's entry is exact over the live obstacles avoid:
// its list equals a fresh sweep of its built octants, and its head flags
// match the list.
func checkEntry(t *testing.T, c *fieldCache, m *mesh.Mesh, avoid []uint64, d int32, what string) {
	t.Helper()
	built := uint8(c.heads[d])
	got := list(c, d)
	if want := freshList(m, avoid, d, built); !slices.Equal(got, want) {
		t.Fatalf("%s: entry %d (octants %08b) lists %v, a fresh sweep %v", what, d, built, got, want)
	}
	if got, want := c.heads[d]&^0xff, headFlags(m, d, got); got != want {
		t.Fatalf("%s: entry %d head flags %04b, its list gives %04b", what, d, got>>8, want>>8)
	}
}

// scopeTally counts what scoped invalidation did to a table's entries.
type scopeTally struct{ untouched, trimmed, rebuilt int }

// checkUntouched runs right after InvalidateCache: every entry that kept all
// its octants must hold the same list, every entry that kept some of them
// the list trimmed to those, and both must equal a fresh sweep over the live
// obstacles avoid — the scoping skipped no octant the change reached.
func checkUntouched(t *testing.T, c *fieldCache, m *mesh.Mesh, avoid []uint64, before map[int32]entrySnap, tally *scopeTally) {
	t.Helper()
	for d, b := range before {
		built := uint8(c.heads[d])
		switch {
		case built == b.built:
			tally.untouched++
			if !slices.Equal(list(c, d), b.list) {
				t.Fatalf("untouched entry %d changed on invalidation", d)
			}
		case built != 0:
			tally.trimmed++
			if built&^b.built != 0 {
				t.Fatalf("entry %d gained octants %08b on invalidation", d, built&^b.built)
			}
		}
		checkEntry(t, c, m, avoid, d, "after invalidation")
	}
}

// observe runs call, a decision toward destination d, and when the call
// swept an octant invalidation had dropped, counts a rebuild. Either way d's
// entry must then equal a fresh sweep over the live obstacles avoid.
func observe(t *testing.T, c *fieldCache, m *mesh.Mesh, avoid []uint64, d int32, tally *scopeTally, call func() uint8) uint8 {
	t.Helper()
	if c.heads == nil {
		return call()
	}
	stale := c.slots[d].stale
	out := call()
	if c.slots[d].stale != stale {
		tally.rebuilt++
	}
	if uint8(c.heads[d]) != 0 {
		checkEntry(t, c, m, avoid, d, "after a lookup")
	}
	return out
}

// maskOf is p's decision for the hop u → d.
func maskOf(p Provider, m *mesh.Mesh, u, d int32) uint8 {
	return p.CandidateMaskID(m, u, m.Point(int(u)), d, m.Point(int(d)))
}

// TestFieldTableStorageBound pins the storage the fieldCache comment states:
// 14 bytes per destination plus the live arena entries (4 bytes per
// exception and 8 per list header), reported by routing.field_storage_peak,
// and an arena whose garbage compaction keeps below max(live, N/4) entries
// between invalidations. An oracle queried toward every destination
// of a faulty 12³ mesh from sources in every octant, with fault changes in
// between, exercises merges, trims and compaction.
func TestFieldTableStorageBound(t *testing.T) {
	if n := unsafe.Sizeof(fieldSlot{}) + unsafe.Sizeof(uint16(0)); n != 14 {
		t.Fatalf("a destination takes %d bytes of table, the comment states 14", n)
	}
	m := mesh.NewCube(12)
	r := rng.New(5)
	placed := fault.Uniform{Count: 150}.Inject(m, r)
	o := NewOracle(m)
	tel := telemetry.NewSink()
	o.SetTelemetry(tel)
	n := m.NodeCount()
	peak := 0
	for round := 0; round < 6; round++ {
		for q := 0; q < 4*n; q++ {
			maskOf(o, m, int32(r.Intn(n)), int32(r.Intn(n)))
			c := &o.cache
			peak = max(peak, c.live)
			if c.dead > max(c.live, n/4) {
				t.Fatalf("arena garbage %d above max(live %d, N/4)", c.dead, c.live)
			}
		}
		if round%2 == 0 {
			m.RemoveFaults(placed[:20]...)
		} else {
			m.AddFaults(placed[:20]...)
		}
		o.InvalidateCache()
	}
	c := &o.cache
	live := 0
	for d := range c.slots {
		if n := int(c.slots[d].n); n > 0 {
			live += n + 2
		}
	}
	if live != c.live || len(c.exc) != c.live+c.dead {
		t.Fatalf("arena accounting: lists hold %d, live %d, dead %d, arena %d", live, c.live, c.dead, len(c.exc))
	}
	if got, want := tel.Get(telemetry.FieldStoragePeak), int64(14*n+4*peak); got != want || peak == 0 {
		t.Fatalf("routing.field_storage_peak = %d, want 14·N + 4·(peak live entries %d) = %d", got, peak, want)
	}
	if tel.Get(telemetry.FieldEvictions) != 0 {
		t.Fatalf("the table evicted")
	}
}

// TestFieldTableKeepsEveryDestination: a provider queried toward every node
// of a 17³ mesh keeps every destination's octant (there is no eviction), and
// each answers the step onto d without another build.
func TestFieldTableKeepsEveryDestination(t *testing.T) {
	m := mesh.NewCube(17)
	o := NewOracle(m)
	tel := telemetry.NewSink()
	o.SetTelemetry(tel)
	n := m.NodeCount()
	step := func(idx int) (int32, int32) {
		d := m.Point(idx)
		u, ok := m.Neighbor(d, grid.XPos)
		if !ok {
			u, _ = m.Neighbor(d, grid.XNeg)
		}
		return m.ID(u), int32(idx)
	}
	for pass := 0; pass < 2; pass++ {
		for idx := 0; idx < n; idx++ {
			u, d := step(idx)
			if got, want := maskOf(o, m, u, d), ReferenceMask(m, nil, true, u, d); got != want || got == 0 {
				t.Fatalf("fault-free mesh: decision (%v -> %v) = %06b, want the step onto d (%06b)", u, d, got, want)
			}
		}
		if got := tel.Get(telemetry.FieldColdBuilds); got != int64(n) {
			t.Fatalf("pass %d: %d cold builds, want one per destination (%d)", pass, got, n)
		}
	}
	for d, head := range o.cache.heads {
		if uint8(head) == 0 {
			t.Fatalf("destination %d lost its octant", d)
		}
	}
}

// TestFieldCacheEpochInvalidation: after a fault injection flows through the
// incremental update path (AddFaults + Refresh + InvalidateCache), every
// decision must match a provider built from scratch over the same mesh.
// Octants the change cannot reach stay as they are; the ones it reaches are
// dropped and swept again when a lookup needs them.
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

	before := snapshotTable(&prov.cache)
	if before[queries[0].d].built == 0 {
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
	// Some entries kept every octant, and some dropped octant was swept
	// again.
	if tally.untouched == 0 || tally.rebuilt == 0 {
		t.Errorf("want untouched entries and rebuilt octants, got %+v", tally)
	}
}

// TestFieldCacheEpochInvalidationOnRepair is the repair-side mirror of
// TestFieldCacheEpochInvalidation: after a fault repair flows through the
// incremental update path (labeling.RemoveFaults + Refresh + InvalidateCache),
// every decision must match a provider built from scratch over the repaired
// mesh. Repairs *open* directions that were excluded before, so a stale list
// that survived the invalidation would be visible as an over-restrictive
// answer.
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
	before := snapshotTable(&prov.cache)
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
	if tally.rebuilt == 0 {
		t.Errorf("no dropped octant was swept again: %+v", tally)
	}

	// The oracle takes the same scoped invalidation on repair; check it
	// against a fresh oracle over the repaired mesh (the live mesh is its
	// source of truth).
	o := NewOracle(m)
	for _, qq := range queries {
		maskOf(o, m, qq.u, qq.d)
	}
	beforeO := snapshotTable(&o.cache)
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
// the miss path and on the hit path that follows it; entries must be exact
// as invalidation leaves them, and after every lookup. Against a vacuous
// pass, each of the three outcomes — kept whole, trimmed to the octants the
// change missed, an octant swept again — must happen at least once.
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
			beforeM, beforeO := snapshotTable(&mcc.cache), snapshotTable(&oracle.cache)
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
			// first, from any octant.
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
	if tally.untouched == 0 || tally.trimmed == 0 || tally.rebuilt == 0 {
		t.Fatalf("a scoping outcome never happened: %+v", tally)
	}
	t.Logf("entries kept whole %d, trimmed %d, octants rebuilt %d", tally.untouched, tally.trimmed, tally.rebuilt)
}
