package routing

// White-box tests for the sparse exception tables: invalidation must be
// exact and keep every octant — each list is patched in place to what a
// fresh sweep of its built octants gives over the changed obstacles — and
// the table keeps every destination, within its stated byte bound.

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
// produces over avoid with d carved out.
func freshList(m *mesh.Mesh, avoid []uint64, d int32, built uint8) []int32 {
	avoid = CarveOut(avoid, d)
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
// its list equals a fresh sweep of its built octants (d carved out), and its
// head flags match the list.
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

// patchTally counts what invalidation did to a table's entries.
type patchTally struct{ unchanged, patched int }

// checkPatched runs right after InvalidateCache: every entry must keep all
// its octants, and its list must equal a fresh sweep over the live obstacles
// avoid, whether the patch left it as it was or changed it.
func checkPatched(t *testing.T, c *fieldCache, m *mesh.Mesh, avoid []uint64, before map[int32]entrySnap, tally *patchTally) {
	t.Helper()
	for d, b := range before {
		if built := uint8(c.heads[d]); built != b.built {
			t.Fatalf("entry %d went from octants %08b to %08b on invalidation", d, b.built, built)
		}
		if slices.Equal(list(c, d), b.list) {
			tally.unchanged++
		} else {
			tally.patched++
		}
		checkEntry(t, c, m, avoid, d, "after invalidation")
	}
}

// observe runs call, a decision toward destination d; d's entry must then
// equal a fresh sweep over the live obstacles avoid.
func observe(t *testing.T, c *fieldCache, m *mesh.Mesh, avoid []uint64, d int32, call func() uint8) uint8 {
	t.Helper()
	out := call()
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
// 10 bytes per destination plus the live arena entries (4 bytes per
// exception and 8 per list header), reported by routing.field_storage_peak,
// and an arena whose garbage compaction keeps below max(live, N/4) entries.
// An oracle queried toward every destination of a faulty 12³ mesh from
// sources in every octant, with fault changes in between, exercises merges,
// patches (in place and moved) and compaction.
func TestFieldTableStorageBound(t *testing.T) {
	if n := unsafe.Sizeof(fieldSlot{}) + unsafe.Sizeof(uint16(0)); n != 10 {
		t.Fatalf("a destination takes %d bytes of table, the comment states 10", n)
	}
	m := mesh.NewCube(12)
	r := rng.New(5)
	placed := fault.Uniform{Count: 150}.Inject(m, r)
	o := NewOracle(m)
	tel := telemetry.NewSink()
	o.SetTelemetry(tel)
	n := m.NodeCount()
	peak := 0
	sample := func() {
		c := &o.cache
		peak = max(peak, c.live)
		if c.dead > max(c.live, n/4) {
			t.Fatalf("arena garbage %d above max(live %d, N/4)", c.dead, c.live)
		}
	}
	for round := 0; round < 6; round++ {
		for q := 0; q < 4*n; q++ {
			maskOf(o, m, int32(r.Intn(n)), int32(r.Intn(n)))
			sample()
		}
		if round%2 == 0 {
			m.RemoveFaults(placed[:20]...)
		} else {
			m.AddFaults(placed[:20]...)
		}
		o.InvalidateCache()
		sample()
	}
	c := &o.cache
	live := 0
	for _, s := range c.slots {
		if s.off > 0 {
			live += int(s.n) + 2
		}
	}
	if live != c.live || len(c.exc) != c.live+c.dead {
		t.Fatalf("arena accounting: lists hold %d, live %d, dead %d, arena %d", live, c.live, c.dead, len(c.exc))
	}
	if got, want := tel.Get(telemetry.FieldStoragePeak), int64(10*n+4*peak); got != want || peak == 0 {
		t.Fatalf("routing.field_storage_peak = %d, want 10·N + 4·(peak live entries %d) = %d", got, peak, want)
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
// Every entry keeps its octants, and its list is patched to a fresh sweep of
// them over the new obstacles.
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
	var tally patchTally
	checkPatched(t, &prov.cache, m, set.UnionAvoidWords(), before, &tally)

	// Every answer must now match a from-scratch provider.
	freshSet := region.FindMCCs(labeling.Compute(m, grid.PositiveOrientation))
	fresh := NewMCC(freshSet)
	for _, qq := range queries {
		if qq.v == injected || qq.u == injected || qq.d == injected {
			continue // the query premise (healthy endpoints) changed
		}
		got := observe(t, &prov.cache, m, set.UnionAvoidWords(), qq.d, func() uint8 { return maskOf(prov, m, qq.u, qq.d) })
		if want := maskOf(fresh, m, qq.u, qq.d); got != want {
			t.Fatalf("after epoch invalidation: decision (%v -> %v) = %06b, fresh provider says %06b",
				qq.u, qq.d, got, want)
		}
	}
	// The fault reached some lists, and left others as they were.
	if tally.unchanged == 0 || tally.patched == 0 {
		t.Errorf("want unchanged and patched entries, got %+v", tally)
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
	var tally patchTally
	checkPatched(t, &prov.cache, m, set.UnionAvoidWords(), before, &tally)

	freshSet := region.FindMCCs(labeling.Compute(m, grid.PositiveOrientation))
	fresh := NewMCC(freshSet)
	for _, qq := range queries {
		got := observe(t, &prov.cache, m, set.UnionAvoidWords(), qq.d, func() uint8 { return maskOf(prov, m, qq.u, qq.d) })
		if want := maskOf(fresh, m, qq.u, qq.d); got != want {
			t.Fatalf("after repair invalidation: decision (%v -> %v) = %06b, fresh provider says %06b",
				qq.u, qq.d, got, want)
		}
	}
	if tally.unchanged == 0 || tally.patched == 0 {
		t.Errorf("want unchanged and patched entries, got %+v", tally)
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
	checkPatched(t, &o.cache, m, m.FaultyWords(), beforeO, &tally)
	freshO := NewOracle(m)
	for _, qq := range queries {
		got := observe(t, &o.cache, m, m.FaultyWords(), qq.d, func() uint8 { return maskOf(o, m, qq.u, qq.d) })
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
// pass, both outcomes — a list the change left as it was, a list it
// changed — must happen at least once.
func TestScopedInvalidationMatchesFresh(t *testing.T) {
	type q struct{ u, d int32 }
	var tally patchTally
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
			return observe(t, &p.cache, m, avoid, qq.d, mask), observe(t, &p.cache, m, avoid, qq.d, mask)
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
			checkPatched(t, &mcc.cache, m, set.UnionAvoidWords(), beforeM, &tally)
			checkPatched(t, &oracle.cache, m, m.FaultyWords(), beforeO, &tally)

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
	if tally.unchanged == 0 || tally.patched == 0 {
		t.Fatalf("a patch outcome never happened: %+v", tally)
	}
	t.Logf("entries unchanged %d, patched %d", tally.unchanged, tally.patched)
}

// FuzzFieldPatchMatchesSweep checks the in-place patch against a fresh sweep.
// On a random 2-D or 3-D mesh of up to 6³ nodes, an oracle or an MCC
// provider builds octants of most destinations from sources at every mesh
// corner, some moved onto the destination's planes. Each step then adds and
// removes cells together — a built destination itself, a cell on one of its
// planes, a cell on the mesh border and a random cell, each flipped — and
// after its InvalidateCache every entry must keep its octants, with a list
// and head flags equal to a fresh sweep of them over the live obstacles with
// the destination carved out. A few lookups from random sources follow each
// step, so later steps patch lists that merges grew.
func FuzzFieldPatchMatchesSweep(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(5), uint8(5), uint8(20), uint8(8), false)
	f.Fuzz(func(t *testing.T, seed uint64, nx, ny, nz, faults, steps uint8, mcc bool) {
		m := mesh.New3D(1+int(nx)%6, 1+int(ny)%6, 1+int(nz)%6)
		dims, n := m.Dims(), m.NodeCount()
		r := rng.New(seed)
		fault.Uniform{Count: int(faults) % (n/3 + 1)}.Inject(m, r)
		p, avoid := NewOracle(m), m.FaultyWords
		var lab *labeling.Labeling
		var set *region.ComponentSet
		if mcc {
			lab = labeling.Compute(m, grid.OrientationFromIndex(int(seed%8)))
			set = region.FindMCCs(lab)
			p, avoid = NewMCC(set), set.UnionAvoidWords
		}
		hi := grid.Point{X: dims.X - 1, Y: dims.Y - 1, Z: dims.Z - 1}
		for d := range n {
			if r.Intn(5) == 0 {
				continue // left unbuilt
			}
			dPt := m.Point(d)
			for k := 0; k < 8; k++ {
				u := grid.Point{X: hi.X * (k & 1), Y: hi.Y * (k >> 1 & 1), Z: hi.Z * (k >> 2 & 1)}
				switch r.Intn(4) {
				case 0:
					u.X = dPt.X
				case 1:
					u.Y, u.Z = dPt.Y, dPt.Z
				}
				maskOf(p, m, m.ID(u), int32(d))
			}
		}
		c := &p.cache
		if c.heads == nil {
			return // a single node: every lookup started at its destination
		}
		for step := 0; step < 1+int(steps)%12; step++ {
			// The cells to flip: a built destination, a cell on one of its
			// planes, a border cell and a random one.
			d := int32(r.Intn(n))
			for k := 0; k < n && uint8(c.heads[d]) == 0; k++ {
				d = (d + 1) % int32(n)
			}
			dPt := m.Point(int(d))
			onPlane := m.Point(r.Intn(n))
			switch r.Intn(3) {
			case 0:
				onPlane.X = dPt.X
			case 1:
				onPlane.Y = dPt.Y
			default:
				onPlane.Z = dPt.Z
			}
			border := m.Point(r.Intn(n))
			border.Y = hi.Y * r.Intn(2)
			var add, rem []grid.Point
			for _, q := range []grid.Point{dPt, onPlane, border, m.Point(r.Intn(n))} {
				switch {
				case slices.Contains(add, q) || slices.Contains(rem, q):
				case m.IsFaulty(q):
					rem = append(rem, q)
				case m.FaultCount()+len(add) < n/2:
					add = append(add, q)
				}
			}
			m.AddFaults(add...)
			if mcc {
				lab.AddFaults(add)
			}
			m.RemoveFaults(rem...)
			if mcc {
				lab.RemoveFaults(rem)
				set.Refresh()
			}
			before := snapshotTable(c)
			p.InvalidateCache()
			for d, b := range before {
				if built := uint8(c.heads[d]); built != b.built {
					t.Fatalf("step %d: entry %d went from octants %08b to %08b", step, d, b.built, built)
				}
				checkEntry(t, c, m, avoid(), d, "after the patch")
			}
			for k := 0; k < 4; k++ {
				maskOf(p, m, int32(r.Intn(n)), int32(r.Intn(n)))
			}
		}
	})
}
