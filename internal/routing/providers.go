package routing

import (
	"math/bits"
	"slices"
	"unsafe"

	"mccmesh/internal/block"
	"mccmesh/internal/grid"
	"mccmesh/internal/labeling"
	"mccmesh/internal/mesh"
	"mccmesh/internal/minimal"
	"mccmesh/internal/region"
	"mccmesh/internal/telemetry"
)

// fieldCache is a field provider's sparse reachability table: for each
// destination d, one sorted list of d's exceptions, the nodes free in the
// provider's obstacle set with d carved out (d's own bit cleared) that have
// no monotone path to d. Under the paper's fault models almost every free
// node reaches d, so a list holds a handful of nodes where a bitset field
// held a whole box (the IWPP principle: store only the elements that
// matter). The carve changes no answer: a provider whose obstacles hold d
// answers 0 before it reads the list.
//
// A list covers the closed octants of d built so far, each the box from d
// to a mesh corner, swept in full into one scratch field whose exceptions
// are merged into the list. One list is exact: whether v reaches d depends
// only on the obstacles in BoxOf(v, d), so a node on a plane through d has
// the same status in every octant that holds it. A hop from u is answered
// by any built octant holding u, which holds every neighbour the hop can
// take (see mask). Exceptions cluster on the planes through d, so d's head
// flags which of them hold one; most hits read the head and the obstacle
// bits in snap, and nothing per destination else.
//
// invalidate patches every list whose built region meets a cell that
// flipped, from the flipped cells outward (patch), and drops no octant: a
// fault change reaches a node only through its forward neighbours, so only
// the nodes behind a changed cell are visited.
//
// Storage: 10 bytes per destination (a 2-byte head, an 8-byte slot), and
// in the arena 4 bytes per live exception plus an 8-byte header per list. compact reclaims the arena's garbage in place once it
// exceeds both the live entries and N/4 (N destinations), so the arena
// holds at most 2·live + N/4 entries. A patched list is rewritten only when
// it changed, in place when it fits its old room.
// There is no eviction; routing.field_storage_peak reports the peak of the
// per-destination tables plus the live arena entries.
type fieldCache struct {
	heads []uint16    // indexed by destination node ID: built octants, list flags
	slots []fieldSlot // indexed by destination node ID
	exc   []int32     // arena of the slots' exception lists, each behind a header
	live  int         // arena entries of live lists, headers included
	dead  int         // arena entries no live list holds

	// snap is the obstacle set the lists were built over, copied from the
	// provider's uncarved obstacle set when the tables are allocated and
	// brought up to date by each invalidate. The hop path reads it in place
	// of a per-destination field, and build sweeps over it.
	snap []uint64

	// strideY and strideZ are the node-ID steps along Y and Z (X steps by
	// one); hi is the mesh's far corner.
	strideY, strideZ int32
	hi               grid.Point

	field   minimal.Field // scratch: the octant being built
	blocked []int32       // scratch: its exceptions, or a patch's additions
	list    []int32       // scratch: a list being stored

	// Scratch of invalidate: the cells that flipped, the patch's worklist,
	// and its overlay on the list being patched: flip, a bitset over node
	// IDs allocated by the first invalidate that patches, has the bit of
	// each node whose status differs from the stored list, and touched
	// names every node whose bit was set.
	added, removed, work, touched []cell
	behind                        [6]cell
	flip                          []uint64

	// tel receives cache counters (builds, invalidations, decision
	// hits/builds, the storage gauge); nil — the default — costs one
	// predicted branch per hook.
	tel *telemetry.Sink
}

// A destination's head holds its built octants in the low byte, a bit per
// octant index k (bit 0 of k set: the octant's corner is on the high side of
// d in X; bit 1 in Y; bit 2 in Z), and above them the list flags: whether
// the list holds a node on d's X, Y or Z plane (sharing that coordinate with
// d), and whether it holds one on none of them.
const (
	headPlaneX uint16 = 1 << (8 + iota)
	headPlaneY
	headPlaneZ
	headOffPlane
)

// fieldSlot is the cold half of one destination's entry: its exception list
// exc[off:off+n], behind its header when off > 0. The zero slot is an empty
// list that holds no arena room; a list a patch empties keeps its header and
// room (off > 0, n = 0) until the next compaction, as a fault and its repair
// often empty and refill the same lists.
type fieldSlot struct {
	off, n int32
}

// cell is a node ID with its coordinates, so that a patch steps through the
// mesh without dividing IDs.
type cell struct {
	id int32
	p  grid.Point
}

// octants returns the octants of d whose closed box meets the box [lo, hi]:
// for a single point p (lo = hi = p), the octants a hop from p toward d can
// be answered from.
func octants(lo, hi, d grid.Point) uint8 {
	axis := func(lo, hi, dc int, low uint8) uint8 {
		var mk uint8
		if lo <= dc {
			mk = low
		}
		if hi >= dc {
			mk |= ^low
		}
		return mk
	}
	return axis(lo.X, hi.X, d.X, 0x55) & axis(lo.Y, hi.Y, d.Y, 0x33) & axis(lo.Z, hi.Z, d.Z, 0x0f)
}

// planes returns the head flags of a list entry at p toward d.
func planes(p, d grid.Point) uint16 {
	var f uint16
	if p.X == d.X {
		f |= headPlaneX
	}
	if p.Y == d.Y {
		f |= headPlaneY
	}
	if p.Z == d.Z {
		f |= headPlaneZ
	}
	if f == 0 {
		f = headOffPlane
	}
	return f
}

// corner returns the mesh corner of octant k.
func (c *fieldCache) corner(k int) grid.Point {
	return grid.Point{X: c.hi.X * (k & 1), Y: c.hi.Y * (k >> 1 & 1), Z: c.hi.Z * (k >> 2 & 1)}
}

// init allocates the tables for m and copies live into snap.
func (c *fieldCache) init(m *mesh.Mesh, live []uint64) {
	dims := m.Dims()
	c.heads = make([]uint16, m.NodeCount())
	c.slots = make([]fieldSlot, m.NodeCount())
	c.snap = append([]uint64(nil), live...)
	c.strideY, c.strideZ = int32(dims.X), int32(dims.X*dims.Y)
	c.hi = grid.Point{X: dims.X - 1, Y: dims.Y - 1, Z: dims.Z - 1}
}

// toward returns the octants of d whose closed box holds a node at offset
// (dx, dy, dz) = d - u from it: the octants a hop from u toward d can be
// answered from. It is octants(u, u, d) without the sign branches, which a
// random packet mix would mispredict.
func toward(dx, dy, dz int) uint8 {
	axis := func(delta int, high uint8) uint8 {
		above := uint8(delta >> 63)  // 0xff when u lies above d
		below := uint8(-delta >> 63) // 0xff when u lies below d
		return ^(below & high) &^ (above &^ high)
	}
	return axis(dx, 0xaa) & axis(dy, 0xcc) & axis(dz, 0xf0)
}

// mask answers the hop from u toward d, at offset (dx, dy, dz) = d - u and
// held by a built octant of d: the bits of the forward neighbours probe
// admits, one per unresolved axis.
func (c *fieldCache) mask(u, d int32, dx, dy, dz int) uint8 {
	flags := c.heads[d] &^ 0xff
	// on is the planes of d that u lies on, plus headOffPlane, which every
	// node matches; needed only when d's list is not empty.
	on := headOffPlane
	if flags != 0 {
		if dx == 0 {
			on |= headPlaneX
		}
		if dy == 0 {
			on |= headPlaneY
		}
		if dz == 0 {
			on |= headPlaneZ
		}
	}
	return c.probe(u, d, dx, 1, grid.XPos, on, headPlaneX, flags) |
		c.probe(u, d, dy, c.strideY, grid.YPos, on, headPlaneY, flags) |
		c.probe(u, d, dz, c.strideZ, grid.ZPos, on, headPlaneZ, flags)
}

// probe returns the direction bit of u's forward neighbour v along one axis,
// where d lies delta away: set when v is d, or v is free in snap and not an
// exception; 0 when the axis is resolved. v lies inside the mesh and inside
// the octant that answers the hop. d's list is searched only when flags say
// it holds a node on a plane v lies on: u's planes on, plus the axis's own
// plane when the step lands on it (|delta| = 1).
//
// The step is branchless, as the sign of delta varies packet to packet: v is
// u ± stride, or u itself (always in range) on a resolved axis, whose bit
// the nonzero mask then clears.
func (c *fieldCache) probe(u, d int32, delta int, stride int32, pos grid.Direction, on, plane, flags uint16) uint8 {
	neg := uint32(int32(delta)) >> 31
	nz := uint32(int32(delta)|-int32(delta)) >> 31
	v := u + int32(nz)*(1-2*int32(neg))*stride
	ok := uint8(^(c.snap[v>>6] >> (uint(v) & 63))) & uint8(nz)
	on |= plane & uint16((delta*delta-2)>>63) // all ones when |delta| ≤ 1
	if flags&on != 0 && ok != 0 {
		s := c.slots[d]
		if _, blocked := slices.BinarySearch(c.exc[s.off:s.off+s.n], v); blocked {
			ok = 0
		}
	}
	if v == d {
		ok = 1
	}
	return ok << (uint32(pos) + neg)
}

// build sweeps the octant of d that holds u, over snap with d carved out,
// and merges its exceptions into d's list. On an axis u shares with d it
// takes the side lean names (octant bits as in the head): the side the
// provider's sources come from. Every octant whose box lies inside the swept
// one (flat on an axis where d is on the mesh border) is marked built with
// it.
func (c *fieldCache) build(m *mesh.Mesh, u grid.Point, d int32, dPt grid.Point, lean uint8) {
	k := int(lean)
	side := func(uc, dc, bit int) {
		if uc < dc {
			k &^= bit
		} else if uc > dc {
			k |= bit
		}
	}
	side(u.X, dPt.X, 1)
	side(u.Y, dPt.Y, 2)
	side(u.Z, dPt.Z, 4)
	far := c.corner(k)
	w := &c.snap[d>>6]
	was := *w
	*w &^= 1 << uint(d&63)
	f := minimal.ReachabilityWordsInto(&c.field, m, c.snap, far, dPt)
	c.blocked = f.AppendBlocked(c.blocked[:0], c.snap)
	*w = was
	box := grid.BoxOf(far, dPt)
	var covered uint8
	for j := 0; j < 8; j++ {
		if box.Contains(c.corner(j)) {
			covered |= 1 << uint(j)
		}
	}
	c.tel.Inc(telemetry.FieldColdBuilds)
	head := c.heads[d] | uint16(covered)
	for _, v := range c.blocked {
		head |= planes(m.Point(int(v)), dPt)
	}
	c.heads[d] = head
	c.merge(d, c.blocked)
	c.gauge()
}

// gauge reports the table's storage to routing.field_storage_peak.
func (c *fieldCache) gauge() {
	c.tel.Max(telemetry.FieldStoragePeak, int64(len(c.slots))*int64(unsafe.Sizeof(fieldSlot{})+2)+4*int64(c.live))
}

// merge makes d's list its sorted union with add (sorted).
func (c *fieldCache) merge(d int32, add []int32) {
	if len(add) == 0 {
		return
	}
	s := c.slots[d]
	old := c.exc[s.off : s.off+s.n]
	out := c.list[:0]
	for len(old) > 0 && len(add) > 0 {
		switch {
		case old[0] < add[0]:
			out, old = append(out, old[0]), old[1:]
		case add[0] < old[0]:
			out, add = append(out, add[0]), add[1:]
		default:
			out, old, add = append(out, old[0]), old[1:], add[1:]
		}
	}
	c.list = append(append(out, old...), add...)
	c.store(d, c.list)
}

// store makes list (sorted, outside the arena) d's list: in place when it
// fits the room d's list holds (the length in its header), otherwise at the
// end of the arena behind a new header, the owner d and the list's length.
// The arena is almost all live lists, and it grows by doubling: append's
// gentler growth for large slices copied it about five times its final
// size over a trial, and left as many dead arrays for the collector.
func (c *fieldCache) store(d int32, list []int32) {
	s := &c.slots[d]
	n := int32(len(list))
	switch {
	case s.off > 0 && n <= c.exc[s.off-1]:
		copy(c.exc[s.off:], list)
		c.live += int(n - s.n)
		c.dead -= int(n - s.n)
		s.n = n
	case n == 0:
	default:
		if need := len(c.exc) + int(n) + 2; need > cap(c.exc) {
			c.exc = slices.Grow(c.exc, max(need, 2*cap(c.exc))-len(c.exc))
		}
		start := int32(len(c.exc))
		c.exc = append(append(c.exc, d, n), list...)
		c.free(s)
		s.off, s.n = start+2, n
		c.live += int(n) + 2
	}
	c.compact()
}

// free turns s's list, and its header, into garbage.
func (c *fieldCache) free(s *fieldSlot) {
	if s.off == 0 {
		return
	}
	c.exc[s.off-2] = -1
	c.live -= int(s.n) + 2
	c.dead += int(s.n) + 2
	*s = fieldSlot{}
}

// compact slides the live lists down over the garbage in place, in arena
// order, once the garbage exceeds both the live entries and a quarter of the
// slot count: each entry moved is paid for by at least one entry of
// garbage, so stores stay amortised O(1) per entry. The headers make the
// arena walkable: a list whose owner is -1 is garbage, and a live list keeps
// its owner's first n entries (a list that shrank in place leaves garbage
// behind it). An emptied list's header goes too.
func (c *fieldCache) compact() {
	if c.dead <= max(c.live, len(c.slots)/4) {
		return
	}
	w := 0
	for i := 0; i < len(c.exc); {
		owner, next := c.exc[i], i+2+int(c.exc[i+1])
		if owner >= 0 {
			s := &c.slots[owner]
			if s.n == 0 {
				c.live -= 2
				*s = fieldSlot{}
				i = next
				continue
			}
			copy(c.exc[w+2:], c.exc[s.off:s.off+s.n])
			c.exc[w], c.exc[w+1] = owner, s.n
			s.off = int32(w + 2)
			w += 2 + int(s.n)
		}
		i = next
	}
	c.exc = c.exc[:w]
	c.dead = 0
}

// invalidate brings every list, and snap, up to the obstacle set live: each
// entry whose built octants meet a cell that flipped is patched in place
// (patch), and every entry keeps all its built octants.
func (c *fieldCache) invalidate(m *mesh.Mesh, live []uint64) {
	c.tel.Inc(telemetry.FieldEpochBumps)
	if c.heads == nil {
		return // nothing built yet; the first lookup copies live
	}
	c.added, c.removed = c.added[:0], c.removed[:0]
	flipped := grid.Box{Min: grid.Point{X: 1}} // empty
	for i, w := range live {
		for x := w ^ c.snap[i]; x != 0; x &= x - 1 {
			b := bits.TrailingZeros64(x)
			f := cell{int32(i<<6 | b), m.Point(i<<6 | b)}
			flipped = flipped.Extend(f.p)
			if w>>uint(b)&1 != 0 {
				c.added = append(c.added, f)
			} else {
				c.removed = append(c.removed, f)
			}
		}
	}
	if flipped.Empty() {
		return
	}
	if c.flip == nil {
		c.flip = make([]uint64, len(c.snap))
	}
	d := int32(0)
	var dPt grid.Point
	for dPt.Z = 0; dPt.Z <= c.hi.Z; dPt.Z++ {
		for dPt.Y = 0; dPt.Y <= c.hi.Y; dPt.Y++ {
			for dPt.X = 0; dPt.X <= c.hi.X; dPt.X, d = dPt.X+1, d+1 {
				head := c.heads[d]
				if built := uint8(head); built != 0 && built&octants(flipped.Min, flipped.Max, dPt) != 0 {
					s := c.slots[d]
					c.patch(m, live, &target{d, dPt, built, head &^ 0xff, c.exc[s.off : s.off+s.n]})
				}
			}
		}
	}
	copy(c.snap, live)
	c.gauge()
}

// target is the entry a patch works on: destination id at p, its built
// octants, and its list as stored (ex) with that list's head flags.
type target struct {
	id    int32
	p     grid.Point
	built uint8
	flags uint16
	ex    []int32
}

// patch brings the list of t from exact over snap to exact over live, in two
// monotone passes over t's built region, the nodes v with built &
// octants(v, v, d) != 0, which is closed under forward steps:
//
//  1. Additions, over the obstacles snap ∪ live. An added cell leaves the
//     list; one that reached d seeds the worklist. A free node v behind a
//     worklist cell joins the list, and the worklist, when none of its
//     forward neighbours is d or free and off the list.
//  2. Removals, over live. Every removed cell joins the list; one with a
//     forward neighbour that is d, or free and off the list, leaves it
//     again and seeds the worklist. Every listed node behind a worklist
//     cell leaves the list and joins the worklist.
//
// Reachability only falls in pass 1 and only rises in pass 2, so each pass
// ends exact. A node behind w is one step farther from d than w on one axis:
// on an axis where w shares d's coordinate, a step to either side. d is
// carved out of the list's obstacle set, so a flip of d changes nothing.
func (c *fieldCache) patch(m *mesh.Mesh, live []uint64, t *target) {
	c.work = c.work[:0]
	for _, a := range c.added {
		if a.id != t.id && t.holds(a.p) {
			if c.listed(t, a) {
				c.toggle(a)
			} else {
				c.work = append(c.work, a)
			}
		}
	}
	for len(c.work) > 0 {
		w := c.work[len(c.work)-1]
		c.work = c.work[:len(c.work)-1]
		for _, v := range c.behindOf(t, w) {
			if !obstacle(c.snap, live, v.id) && !c.listed(t, v) && !c.reaches(t, v, c.snap, live) {
				c.toggle(v)
				c.work = append(c.work, v)
			}
		}
	}

	for _, r := range c.removed {
		if r.id != t.id && t.holds(r.p) {
			c.toggle(r)
		}
	}
	for _, r := range c.removed {
		if r.id != t.id && t.holds(r.p) && c.reaches(t, r, live, live) {
			c.toggle(r)
			c.work = append(c.work, r)
		}
	}
	for len(c.work) > 0 {
		w := c.work[len(c.work)-1]
		c.work = c.work[:len(c.work)-1]
		for _, v := range c.behindOf(t, w) {
			if c.listed(t, v) {
				c.toggle(v)
				c.work = append(c.work, v)
			}
		}
	}
	c.commit(m, t)
}

// holds reports whether a built octant of t holds p.
func (t *target) holds(p grid.Point) bool {
	return t.built&toward(t.p.X-p.X, t.p.Y-p.Y, t.p.Z-p.Z) != 0
}

// obstacle reports whether v is set in a or in b.
func obstacle(a, b []uint64, v int32) bool {
	return (a[v>>6]|b[v>>6])>>(uint(v)&63)&1 != 0
}

// listed reports whether v is on the list being patched: whether t's stored
// list holds it, unless its flip bit is set.
func (c *fieldCache) listed(t *target, v cell) bool {
	return t.stores(v) != (c.flip[v.id>>6]>>(uint(v.id)&63)&1 != 0)
}

// stores reports whether t's stored list holds v, searching it only when the
// list's head flags name a plane of the destination that v lies on.
func (t *target) stores(v cell) bool {
	if t.flags&planes(v.p, t.p) == 0 {
		return false
	}
	_, ok := slices.BinarySearch(t.ex, v.id)
	return ok
}

// toggle puts v on the list being patched, or takes it off.
func (c *fieldCache) toggle(v cell) {
	w, bit := &c.flip[v.id>>6], uint64(1)<<(uint(v.id)&63)
	if *w&bit == 0 {
		c.touched = append(c.touched, v)
	}
	*w ^= bit
}

// reaches reports whether v has a forward neighbour toward t's destination
// that is the destination, or is free in a ∪ b and off the list being
// patched.
func (c *fieldCache) reaches(t *target, v cell, a, b []uint64) bool {
	open := func(w int32, q grid.Point) bool {
		return w == t.id || !obstacle(a, b, w) && !c.listed(t, cell{w, q})
	}
	p, d := v.p, t.p
	return p.X != d.X && open(v.id+sign(d.X-p.X), grid.Point{X: p.X + int(sign(d.X-p.X)), Y: p.Y, Z: p.Z}) ||
		p.Y != d.Y && open(v.id+sign(d.Y-p.Y)*c.strideY, grid.Point{X: p.X, Y: p.Y + int(sign(d.Y-p.Y)), Z: p.Z}) ||
		p.Z != d.Z && open(v.id+sign(d.Z-p.Z)*c.strideZ, grid.Point{X: p.X, Y: p.Y, Z: p.Z + int(sign(d.Z-p.Z))})
}

// sign returns -1 or 1, the sign of a nonzero delta.
func sign(delta int) int32 {
	return int32(delta>>63) | 1
}

// behindOf returns, in c.behind, the nodes behind w toward t's destination
// (see patch) inside the mesh and t's built region: a step off one of the
// destination's planes is the only one that can leave the region, as every
// other keeps the side of the destination w lies on.
func (c *fieldCache) behindOf(t *target, w cell) []cell {
	out := c.behind[:0]
	p, d := w.p, t.p
	add := func(id int32, q grid.Point, onPlane bool) {
		if !onPlane || t.holds(q) {
			out = append(out, cell{id, q})
		}
	}
	if p.X <= d.X && p.X > 0 {
		add(w.id-1, grid.Point{X: p.X - 1, Y: p.Y, Z: p.Z}, p.X == d.X)
	}
	if p.X >= d.X && p.X < c.hi.X {
		add(w.id+1, grid.Point{X: p.X + 1, Y: p.Y, Z: p.Z}, p.X == d.X)
	}
	if p.Y <= d.Y && p.Y > 0 {
		add(w.id-c.strideY, grid.Point{X: p.X, Y: p.Y - 1, Z: p.Z}, p.Y == d.Y)
	}
	if p.Y >= d.Y && p.Y < c.hi.Y {
		add(w.id+c.strideY, grid.Point{X: p.X, Y: p.Y + 1, Z: p.Z}, p.Y == d.Y)
	}
	if p.Z <= d.Z && p.Z > 0 {
		add(w.id-c.strideZ, grid.Point{X: p.X, Y: p.Y, Z: p.Z - 1}, p.Z == d.Z)
	}
	if p.Z >= d.Z && p.Z < c.hi.Z {
		add(w.id+c.strideZ, grid.Point{X: p.X, Y: p.Y, Z: p.Z + 1}, p.Z == d.Z)
	}
	return out
}

// commit stores t's patched list and recomputes its head flags when the
// patch changed the list, and clears the flip bits.
func (c *fieldCache) commit(m *mesh.Mesh, t *target) {
	changed := false
	add := c.blocked[:0]
	for _, v := range c.touched {
		if c.flip[v.id>>6]>>(uint(v.id)&63)&1 != 0 {
			changed = true
			if !t.stores(v) {
				add = append(add, v.id)
				c.flip[v.id>>6] &^= 1 << (uint(v.id) & 63)
			}
		}
	}
	c.blocked = add
	if changed {
		slices.Sort(add)
		out := c.list[:0]
		for _, v := range t.ex {
			for len(add) > 0 && add[0] < v {
				out, add = append(out, add[0]), add[1:]
			}
			if c.flip[v>>6]>>(uint(v)&63)&1 == 0 {
				out = append(out, v)
			}
		}
		c.list = append(out, add...)
		head := uint16(t.built)
		for _, v := range c.list {
			head |= planes(m.Point(int(v)), t.p)
		}
		c.heads[t.id] = head
		c.store(t.id, c.list)
	}
	for _, v := range c.touched {
		c.flip[v.id>>6] &^= 1 << (uint(v.id) & 63)
	}
	c.touched = c.touched[:0]
}

// FieldProvider is the field-backed provider of the oracle, the MCC model and
// the rectangular-faulty-block baselines. In the paper a step into neighbour
// v is excluded exactly when the merged forbidden regions block every
// monotone v→d path, so these models ask one reachability question and
// differ only in the obstacle set it is asked over:
//
//   - oracle (NewOracle): the faulty nodes — the theoretical optimum every
//     model is measured against;
//   - mcc (NewMCC): the union of the MCCs, which is what the merged boundary
//     records of the paper's information model encode;
//   - rfb and fb-rule (NewBlock): the union of the rectangular faulty
//     blocks, given the same merging treatment as the MCC model for a fair
//     comparison.
//
// A hop is answered from the destination's exceptions over that set
// (fieldCache): a neighbour v is allowed exactly when a monotone v→d path
// avoids every obstacle. Every obstacle set contains the faults, and an
// obstacle neighbour reaches nothing, so an allowed neighbour is also
// healthy and outside every fault region — the paper never forwards into
// one. The exceptions toward d are taken with d carved out of the set: a
// destination inside a block (healthy, but swallowed by the coarse model)
// is answered from them, so routes can at least try to terminate.
type FieldProvider struct {
	name      string
	mesh      *mesh.Mesh
	obstacles func() []uint64 // the live obstacle set
	// blocks is the block table of the block baselines, nil otherwise: a
	// snapshot that cannot follow fault changes (see Follows).
	blocks *block.Regions
	// lean names, as octant bits (fieldCache.build), the side of the
	// destination the provider's sources come from on an axis they share
	// with it: the side grid.OrientationOf gives them, low on every axis,
	// except for an MCC provider of an orientation with negative signs,
	// whose packets approach from the high side.
	lean uint8

	cache fieldCache
}

// NewOracle returns the omniscient provider: a step is permitted exactly when
// a minimal path from the neighbour to the destination avoiding every faulty
// node of m still exists. The live mesh is its obstacle source.
func NewOracle(m *mesh.Mesh) *FieldProvider {
	return &FieldProvider{name: "oracle", mesh: m, obstacles: m.FaultyWords}
}

// NewMCC returns the paper's provider backed by globally known MCC boundary
// information: a step is excluded when the merged forbidden regions of the
// MCCs in set block every monotone path from the neighbour to the
// destination.
func NewMCC(set *region.ComponentSet) *FieldProvider {
	p := &FieldProvider{name: "mcc", mesh: set.Mesh, obstacles: set.UnionAvoidWords}
	if set.Labeling != nil {
		p.lean = uint8(set.Labeling.Orientation().Index())
	}
	return p
}

// NewBlock returns the block baseline of r's variant (rfb or fb-rule): a step
// is excluded when the union of r's blocks closes off every monotone path
// from the neighbour to the destination.
func NewBlock(r *block.Regions) *FieldProvider {
	return &FieldProvider{name: r.Model.String(), mesh: r.Mesh, obstacles: r.AvoidWords, blocks: r}
}

// Name implements Provider.
func (p *FieldProvider) Name() string { return p.name }

// SetTelemetry implements telemetry.Instrumentable.
func (p *FieldProvider) SetTelemetry(s *telemetry.Sink) { p.cache.tel = s }

// Follows reports whether InvalidateCache alone keeps p correct after a fault
// change. The oracle reads the live mesh, and an MCC provider reads a
// ComponentSet that region.ComponentSet.Refresh brings up to date in place,
// so both follow. A block table has no in-place refresh: after a fault
// change a block provider must be rebuilt over a rebuilt table.
func (p *FieldProvider) Follows() bool { return p.blocks == nil }

// InvalidateCache brings p's table up to date with the obstacle set after a
// change since the last call (or since the first lookup). The update is
// scoped to the fault and exact (see fieldCache): the exception list of each
// destination whose built octants hold a changed cell is patched in place,
// from the changed cells outward, and no built octant is dropped. It is
// correct only for a provider that Follows, after its source has been
// brought up to date.
func (p *FieldProvider) InvalidateCache() { p.cache.invalidate(p.mesh, p.obstacles()) }

// CandidateMaskID implements Provider. A hop that needs no field — u is d,
// or d itself is an obstacle (never for the block baselines, which carve d
// out), so nothing reaches it — answers at once; otherwise the hop is
// answered from d's exceptions (fieldCache.mask), after sweeping the octant
// that holds u when no built one does. Each call counts as exactly one
// decision hit or one decision build.
func (p *FieldProvider) CandidateMaskID(_ *mesh.Mesh, u int32, uPt grid.Point, d int32, dPt grid.Point) uint8 {
	c := &p.cache
	if c.heads == nil {
		c.init(p.mesh, p.obstacles())
	}
	if u == d || (p.blocks == nil && c.snap[d>>6]>>(uint(d)&63)&1 != 0) {
		c.tel.Inc(telemetry.DecisionHits)
		return 0
	}
	dx, dy, dz := dPt.X-uPt.X, dPt.Y-uPt.Y, dPt.Z-uPt.Z
	if uint8(c.heads[d])&toward(dx, dy, dz) == 0 {
		c.tel.Inc(telemetry.DecisionBuilds)
		c.build(p.mesh, uPt, d, dPt, p.lean)
	} else {
		c.tel.Inc(telemetry.DecisionHits)
	}
	return c.mask(u, d, dx, dy, dz)
}

// AllowedID reports whether the step from u to v toward d is permitted: the
// bit of the u→v direction in CandidateMaskID. It is valid only for v a
// forward neighbour of u toward d. Nothing in the module calls it; it stays
// while the traced benchmark's decision sampler wraps only providers that
// carry it, and goes with the benchmark-mending step on the ROADMAP.
func (p *FieldProvider) AllowedID(u, v, d int32) bool {
	m := p.mesh
	uPt := m.Point(int(u))
	return p.CandidateMaskID(m, u, uPt, d, m.Point(int(d)))&healthyForwardMask(m, u, uPt, m.Point(int(v))) != 0
}

// Records is the boundary-information provider: each node holds only the MCC
// records deposited on it by the boundary-construction protocol, and routing
// decisions consult the records of the current node (plus the records already
// collected along the path, which a real message carries in its header). This
// models the paper's limited-global-information regime. With CarryAlong, one
// value carries one message's records: route each message with a fresh
// Records.
type Records struct {
	Set *region.ComponentSet
	// PerNode maps a node index to the IDs of the components whose records are
	// stored at that node.
	PerNode map[int][]int
	// CarryAlong controls whether records seen earlier on the path remain
	// usable (the routing message accumulates them); the paper's messages do.
	CarryAlong bool

	carried []int // component IDs the current message carries, unordered
}

// Name implements Provider.
func (p *Records) Name() string { return "mcc-boundary" }

// CandidateMaskID implements Provider: RecordsMask over the records known at
// u. With CarryAlong, u's records first join the set the message carries.
func (p *Records) CandidateMaskID(m *mesh.Mesh, u int32, uPt grid.Point, d int32, dPt grid.Point) uint8 {
	known := p.PerNode[int(u)]
	if p.CarryAlong {
		for _, id := range known {
			if !slices.Contains(p.carried, id) {
				p.carried = append(p.carried, id)
			}
		}
		known = p.carried
	}
	return RecordsMask(m, p.Set, known, u, uPt, d, dPt)
}

// RecordsMask is the records hop rule, shared by Records and the hop-by-hop
// routing protocol: the safe forward set from u toward d (see
// safeForwardMask, over set's labelling) minus the neighbours from which the
// components named in known block every monotone path to d. The known records
// act together, exactly like the merged forbidden regions the boundary
// construction produces, so their order does not matter.
func RecordsMask(m *mesh.Mesh, set *region.ComponentSet, known []int, u int32, uPt grid.Point, d int32, dPt grid.Point) uint8 {
	mk := safeForwardMask(m, set.Labeling, u, uPt, d, dPt)
	if len(known) == 0 {
		return mk
	}
	var avoid []uint64
	for _, id := range known {
		if c := set.Components[id]; !c.HasID(d) {
			avoid = c.AddWords(avoid)
		}
	}
	for rest := mk; rest != 0; rest &= rest - 1 {
		dir := grid.Direction(bits.TrailingZeros8(rest))
		v := m.Point(int(m.NeighborID(u, dir)))
		if !minimal.Exists(m, avoid, v, dPt) {
			mk &^= 1 << uint(dir)
		}
	}
	return mk
}

// LocalGreedy is the floor baseline: it only knows the fault status of the
// current node's neighbours and therefore accepts any healthy preferred
// neighbour. It can run into dead ends, which count as routing failures.
type LocalGreedy struct{}

// Name implements Provider.
func (LocalGreedy) Name() string { return "local-greedy" }

// CandidateMaskID implements Provider: with no fault information
// beyond the neighbours, the decision is exactly the healthy forward set.
func (LocalGreedy) CandidateMaskID(m *mesh.Mesh, u int32, uPt grid.Point, _ int32, dPt grid.Point) uint8 {
	return healthyForwardMask(m, u, uPt, dPt)
}

// Labeled avoids any unsafe node but applies no region reasoning: it shows the
// value of the forbidden/critical rule on top of the raw labelling.
type Labeled struct {
	Labeling *labeling.Labeling
}

// Name implements Provider.
func (p *Labeled) Name() string { return "labels-only" }

// CandidateMaskID implements Provider: the healthy forward set minus
// unsafe neighbours (the destination excepted), computed on the fly — the
// labelling carries no per-destination state worth memoising.
func (p *Labeled) CandidateMaskID(m *mesh.Mesh, u int32, uPt grid.Point, d int32, dPt grid.Point) uint8 {
	return safeForwardMask(m, p.Labeling, u, uPt, d, dPt)
}
