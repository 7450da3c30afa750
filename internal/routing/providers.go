package routing

import (
	"math"
	"math/bits"
	"slices"

	"mccmesh/internal/block"
	"mccmesh/internal/grid"
	"mccmesh/internal/labeling"
	"mccmesh/internal/mesh"
	"mccmesh/internal/minimal"
	"mccmesh/internal/region"
	"mccmesh/internal/telemetry"
)

// CacheInvalidator is implemented by providers that memoise reachability
// fields derived from fault information. Invalidation is scoped to the fault:
// the provider compares its obstacle bitset with the copy its fields were
// swept over, and marks stale only the fields whose box meets the cells that
// changed. A stale field is brought up to date in place (reusing its bitset
// storage) the next time its destination is routed to, re-sweeping only the
// rows the change can reach.
//
// For the Oracle the live mesh is the source of truth, so invalidating alone
// is always correct. For MCC the provider reads a snapshot (the
// ComponentSet); invalidating its cache is correct only when that snapshot
// has itself been brought up to date — region.ComponentSet.Refresh updates an
// MCC set in place. A Block snapshot has no in-place refresh; after mesh
// mutations it must be rebuilt wholesale, so Block does not implement
// CacheInvalidator.
//
// core.Model, which owns and caches the providers, applies exactly this
// rule on ApplyFaults / RepairFaults: it keeps the providers that implement
// CacheInvalidator and calls InvalidateCache (MCC's after its ComponentSet
// is refreshed), and drops every other provider for lazy rebuild.
type CacheInvalidator interface {
	// InvalidateCache marks stale every memoised reachability field the
	// fault information changed since the last call (or since the first
	// field was built), so the next decision brings it up to date.
	InvalidateCache()
}

// fieldCacheMax bounds the number of live reachability fields per provider.
// On overflow the oldest entry is evicted (FIFO); eviction order cannot
// affect results, only speed. 4096 fields cover every destination of the
// reference 16³ mesh; larger meshes recycle.
const fieldCacheMax = 4096

// fieldCache memoises reachability fields per destination, indexed by the
// destination's dense node ID — no map, no hashing on the per-hop path.
// CanReach(v) for a point inside a field's box depends only on the cells
// between v and the destination — never on the source the field was built
// from — so reusing a field across packets (and across sources) is exact, not
// approximate.
//
// Invalidation follows the fault. invalidate XORs the live obstacle bitset
// against snap, the copy every live field was swept over, and takes the
// bounding box of the flipped cells. Since a field's bits depend only on the
// obstacles inside its box, only the live fields whose box meets that
// bounding box can have changed; each of those records the rows the flips
// can reach (minimal.Field.CutOf) as a pending cut, and every other field
// stays live untouched. A stale field is re-swept in place over its cut when
// its destination is next looked up, so a mid-run fault costs one bitset
// compare immediately and, over time, a partial sweep per field that
// actually holds the fault — the IWPP principle of processing only the
// active wavefront.
type fieldCache struct {
	slots []fieldSlot // indexed by destination node ID
	order []int32     // FIFO of destinations holding a field
	head  int         // consumed prefix of order
	spare []*minimal.Field

	// snap is the obstacle bitset the live fields were swept over, copied
	// when the slot table is allocated and brought up to date by each
	// invalidate. (Block never invalidates, so its copy goes unread.)
	snap []uint64

	// slab and arena chunk the allocation of cold builds: Field structs come
	// from slab, their bitset words are carved from arena, so populating the
	// cache costs O(1) allocations per few hundred destinations instead of
	// two per destination.
	slab  []minimal.Field
	arena []uint64

	// tel receives cache counters (hits, cold builds, rebuilds, evictions,
	// invalidations, decision hits/builds); nil — the default — costs one
	// predicted branch per hook.
	tel *telemetry.Sink
}

// fieldSlot is one destination's cache entry: the memoised reachability field
// plus a flattened view of it — the bitset words and the box geometry as
// int32s — that the per-hop decision fast path reads without touching the
// Field struct. The view is restamped on every full build, so it always
// matches the live field even when an AllowedID lookup widens the box (a
// re-sweep keeps box and storage). Geometry is stored as min corner plus
// extents so the in-box check is three subtract-and-unsigned-compare pairs
// whose results double as the box-local coordinates of the bit probes, and as
// int32s so the whole slot is one 64-byte cache line: a decision() hit
// touches exactly one line of the slot array plus one to three field words.
//
// cutY, cutZ are the field's pending cut (minimal.Cut), in bytes the struct
// would otherwise pad: the rows a fault change since the last sweep can
// reach, saturating at math.MaxInt16 (read back as every row). noCut (-1) in
// cutY marks the field live; any cut is non-negative, so the fast path tests
// cutY alone. The zero slot reads as stale and has an empty box.
type fieldSlot struct {
	field            *minimal.Field
	words            []uint64
	cutY, cutZ       int16
	minX, minY, minZ int32
	boxW, boxH, boxD int32
}

// noCut is the pending cut of a live field.
const noCut = -1

// pendingCut widens the slot's pending cut back to a minimal.Cut.
func (s *fieldSlot) pendingCut() minimal.Cut {
	unpack := func(v int16) int {
		if v == math.MaxInt16 {
			return math.MaxInt
		}
		return int(v)
	}
	return minimal.Cut{Y: unpack(s.cutY), Z: unpack(s.cutZ)}
}

// lookup returns an up-to-date field for destination d that covers v,
// re-sweeping, building or widening one in place when needed. avoid is the
// provider's obstacle bitset the field is swept over.
func (c *fieldCache) lookup(m *mesh.Mesh, u, v, d grid.Point, dID int32, avoid []uint64) *minimal.Field {
	if c.slots == nil {
		c.slots = make([]fieldSlot, m.NodeCount())
		c.snap = append([]uint64(nil), avoid...)
	}
	s := &c.slots[dID]
	if f := s.field; f != nil && f.Covers(v) {
		if s.cutY == noCut {
			c.tel.Inc(telemetry.FieldHits)
			return f
		}
		// Stale but covering: re-sweep the rows the fault change reaches.
		// Box and storage stay, so the decision view stays valid.
		f.Resweep(avoid, s.pendingCut())
		c.tel.Inc(telemetry.FieldRebuilds)
		s.cutY, s.cutZ = noCut, noCut
		return f
	}
	// Build over the whole octant behind u rather than just BoxOf(u, d):
	// every later source approaching d from the same side is then covered by
	// the one build, so a destination slot builds once instead of widening
	// toward that same converged box one source at a time (each widening
	// being a full rebuild). Enlarging the box is exact — each cell's value
	// depends only on the cells between it and d.
	src := octantSource(m.Dims(), u, d)
	reuse := s.field
	if reuse != nil {
		// A field that doesn't cover v: widen the box so the old coverage and
		// the new source both fit, when d stays a corner of the union. This
		// stops two sources with the same destination from rebuilding the
		// field back and forth (e.g. axes resolved at the first build's
		// source that a later source approaches from either side).
		if wide, ok := widenSource(reuse.Box(), src, d); ok {
			src = wide
		}
	}
	if reuse == nil {
		c.tel.Inc(telemetry.FieldColdBuilds)
		if len(c.order)-c.head >= fieldCacheMax {
			c.evictOldest()
		}
		if k := len(c.spare); k > 0 {
			reuse = c.spare[k-1]
			c.spare = c.spare[:k-1]
		} else {
			reuse = c.newField(src, d)
		}
		c.order = append(c.order, dID)
	} else {
		c.tel.Inc(telemetry.FieldRebuilds)
	}
	f := minimal.ReachabilityWordsInto(reuse, m, avoid, src, d)
	s.field = f
	s.cutY, s.cutZ = noCut, noCut
	// Restamp the decision view: the build may have widened the box or grown
	// the bitset storage, and the probes index the live words directly.
	box := f.Box()
	s.words = f.BitWords()
	s.minX, s.minY, s.minZ = int32(box.Min.X), int32(box.Min.Y), int32(box.Min.Z)
	s.boxW = int32(box.Max.X - box.Min.X + 1)
	s.boxH = int32(box.Max.Y - box.Min.Y + 1)
	s.boxD = int32(box.Max.Z - box.Min.Z + 1)
	return f
}

// decision answers a hop from the memoised reachability field — the per-hop
// fast path: one staleness compare, one box check and at most three bit probes
// into the field's bitset (the forward neighbour on each unresolved axis; a
// set bit means the neighbour still reaches d, and since every provider's
// obstacle set contains the faults, it also means the neighbour is healthy).
// A miss (no field, a stale one, or u outside its box) falls to
// decisionMask. Probing the field directly instead of a precomputed byte
// table keeps the hot working set at the fields themselves — an eighth the
// footprint of one byte per node — which is what the per-hop latency is
// bound by.
func (c *fieldCache) decision(uPt, dPt grid.Point, d int32) (uint8, bool) {
	if c.slots == nil {
		return 0, false
	}
	s := &c.slots[d]
	if s.cutY != noCut {
		return 0, false
	}
	x := int32(uPt.X) - s.minX
	y := int32(uPt.Y) - s.minY
	z := int32(uPt.Z) - s.minZ
	if uint32(x) >= uint32(s.boxW) || uint32(y) >= uint32(s.boxH) || uint32(z) >= uint32(s.boxD) {
		return 0, false
	}
	c.tel.Inc(telemetry.DecisionHits)
	return s.dirMask(uPt, dPt, x, y, z), true
}

// dirMask probes the forward neighbour's field bit on each axis still
// unresolved toward d and packs the answers into a direction mask (bit
// grid.Direction). (x, y, z) are u's box-local coordinates, already
// bounds-checked. Each probe stays inside the box: a nonzero delta means d
// lies strictly beyond u on that axis, and d's plane bounds the box, so the
// one-step neighbour is between them. Zero-delta axes contribute no bit,
// which matches the field's geometry — u then sits on d's corner plane where
// a forward step would leave the box.
//
// The probes are branchless: which side of u the destination lies on varies
// packet to packet, so sign branches here would mispredict constantly. Each
// axis derives a step of -1, 0 or +1 rows/planes from the delta's sign bits,
// probes loc+step (loc itself when the axis is resolved — always in range)
// and nulls the resolved-axis bit with the nonzero mask.
func (s *fieldSlot) dirMask(uPt, dPt grid.Point, x, y, z int32) uint8 {
	words := s.words
	loc := x + s.boxW*(y+s.boxH*z)
	probe := func(delta, stride int32, axisShift uint32) uint8 {
		neg := uint32(delta) >> 31
		nz := uint32(delta|-delta) >> 31
		n := loc + int32(nz)*(1-2*int32(neg))*stride
		bit := uint8(words[n>>6]>>(uint32(n)&63)) & uint8(nz)
		return bit << (axisShift + neg)
	}
	mk := probe(int32(dPt.X-uPt.X), 1, uint32(grid.XPos))
	mk |= probe(int32(dPt.Y-uPt.Y), s.boxW, uint32(grid.YPos))
	mk |= probe(int32(dPt.Z-uPt.Z), s.boxW*s.boxH, uint32(grid.ZPos))
	return mk
}

// decisionMask is the miss path of decision: resolve an up-to-date field
// covering u through the ordinary lookup — building it, re-sweeping it in
// place when stale, widening its box when u lies outside — which also
// restamps the slot's decision view, then answer the hop with the same bit
// probes the fast path uses. Every later hop toward d from inside the box is
// then a decision() hit until a fault change reaches the field.
func (c *fieldCache) decisionMask(m *mesh.Mesh, uPt grid.Point, d int32, dPt grid.Point, avoid []uint64) uint8 {
	c.lookup(m, uPt, uPt, dPt, d, avoid)
	c.tel.Inc(telemetry.DecisionBuilds)
	s := &c.slots[d]
	x := int32(uPt.X) - s.minX
	y := int32(uPt.Y) - s.minY
	z := int32(uPt.Z) - s.minZ
	return s.dirMask(uPt, dPt, x, y, z)
}

// covered returns the live field for destination dID when it covers v, nil
// otherwise — the branch AllowedID takes on a cache hit, with no closure and
// no second box check (CanReachCovered pairs with it).
func (c *fieldCache) covered(dID int32, v grid.Point) *minimal.Field {
	if c.slots == nil {
		return nil
	}
	s := &c.slots[dID]
	if s.field != nil && s.cutY == noCut && s.field.Covers(v) {
		c.tel.Inc(telemetry.FieldHits)
		return s.field
	}
	return nil
}

// newField takes a Field struct from the slab and carves its bitset storage
// from the arena, sized for BoxOf(src, d) rounded up to a power of two so
// box-widening rebuilds usually fit in place.
func (c *fieldCache) newField(src, d grid.Point) *minimal.Field {
	if len(c.slab) == 0 {
		c.slab = make([]minimal.Field, 256)
	}
	f := &c.slab[0]
	c.slab = c.slab[1:]
	nwords := (grid.BoxOf(src, d).Volume() + 63) / 64
	capW := 1
	for capW < nwords {
		capW <<= 1
	}
	if len(c.arena) < capW {
		n := 4096
		if n < capW {
			n = capW
		}
		c.arena = make([]uint64, n)
	}
	f.PrepareStorage(c.arena[:0:capW])
	c.arena = c.arena[capW:]
	return f
}

// evictOldest drops the least-recently-inserted live field, parking its
// storage for reuse. The slot is zeroed so the decision fast path cannot
// answer from a view whose words the parked field will overwrite for another
// destination.
func (c *fieldCache) evictOldest() {
	c.tel.Inc(telemetry.FieldEvictions)
	for c.head < len(c.order) {
		id := c.order[c.head]
		c.head++
		if s := &c.slots[id]; s.field != nil {
			if len(c.spare) < 8 {
				c.spare = append(c.spare, s.field)
			}
			*s = fieldSlot{}
			break
		}
	}
	if c.head >= fieldCacheMax {
		c.order = append(c.order[:0], c.order[c.head:]...)
		c.head = 0
	}
}

// octantSource returns the far corner of u's octant behind d: the source
// whose box with d covers every node approaching d from u's side on each
// unresolved axis. Axes already resolved at u stay flat — a later source on
// either side of such an axis still widens the box, with d staying a corner.
func octantSource(dims mesh.Dims, u, d grid.Point) grid.Point {
	pick := func(uc, dc, hi int) int {
		switch {
		case uc < dc:
			return 0
		case uc > dc:
			return hi
		default:
			return dc
		}
	}
	return grid.Point{
		X: pick(u.X, d.X, dims.X-1),
		Y: pick(u.Y, d.Y, dims.Y-1),
		Z: pick(u.Z, d.Z, dims.Z-1),
	}
}

// widenSource returns the source corner of the union of box and BoxOf(u, d),
// provided d remains a corner of that union (always true for per-orientation
// providers, whose sources all lie in the octant behind d; false for the
// oracle when sources from opposite octants mix).
func widenSource(box grid.Box, u, d grid.Point) (grid.Point, bool) {
	un := box.Union(grid.BoxOf(u, d))
	var src grid.Point
	pick := func(dc, lo, hi int) (int, bool) {
		switch dc {
		case lo:
			return hi, true
		case hi:
			return lo, true
		default:
			return 0, false
		}
	}
	var ok bool
	if src.X, ok = pick(d.X, un.Min.X, un.Max.X); !ok {
		return grid.Point{}, false
	}
	if src.Y, ok = pick(d.Y, un.Min.Y, un.Max.Y); !ok {
		return grid.Point{}, false
	}
	if src.Z, ok = pick(d.Z, un.Min.Z, un.Max.Z); !ok {
		return grid.Point{}, false
	}
	return src, true
}

// invalidate brings snap up to live and marks stale exactly the live fields
// whose box meets the bounding box of the cells that flipped, merging the
// rows the flips reach into each one's pending cut.
func (c *fieldCache) invalidate(m *mesh.Mesh, live []uint64) {
	c.tel.Inc(telemetry.FieldEpochBumps)
	if c.slots == nil {
		return // no field built yet; the first one copies live
	}
	flipped := grid.Box{Min: grid.Point{X: 1}} // empty
	for i, w := range live {
		for x := w ^ c.snap[i]; x != 0; x &= x - 1 {
			flipped = flipped.Extend(m.Point(i<<6 | bits.TrailingZeros64(x)))
		}
	}
	if flipped.Empty() {
		return
	}
	copy(c.snap, live)
	for _, id := range c.order[c.head:] {
		s := &c.slots[id]
		if s.field == nil {
			continue
		}
		cut, ok := s.field.CutOf(flipped)
		if !ok {
			continue
		}
		s.cutY = max(s.cutY, int16(min(cut.Y, math.MaxInt16)))
		s.cutZ = max(s.cutZ, int16(min(cut.Z, math.MaxInt16)))
	}
}

// Oracle is the omniscient provider: it permits a step exactly when a
// minimal path from the neighbour to the destination avoiding all faulty
// nodes still exists. It realises the theoretical optimum every model is
// measured against.
type Oracle struct {
	Mesh *mesh.Mesh

	cache fieldCache
}

// Name implements Provider.
func (o *Oracle) Name() string { return "oracle" }

// InvalidateCache implements CacheInvalidator.
func (o *Oracle) InvalidateCache() { o.cache.invalidate(o.Mesh, o.Mesh.FaultyWords()) }

// SetTelemetry implements telemetry.Instrumentable.
func (o *Oracle) SetTelemetry(s *telemetry.Sink) { o.cache.tel = s }

// field looks up d's field. The oracle's obstacle set is exactly the mesh's
// fault bitset, consumed word-level by the row-at-a-time sweep.
func (o *Oracle) field(u, v, d grid.Point, dID int32) *minimal.Field {
	return o.cache.lookup(o.Mesh, u, v, d, dID, o.Mesh.FaultyWords())
}

// AllowedID reports whether forwarding from u to its preferred neighbour v
// is permitted toward d: the per-direction reference the decision-parity
// tests check CandidateMaskID against.
func (o *Oracle) AllowedID(u, v, d int32) bool {
	m := o.Mesh
	vP := m.Point(int(v))
	if f := o.cache.covered(d, vP); f != nil {
		return f.CanReachCovered(vP)
	}
	return o.field(m.Point(int(u)), vP, m.Point(int(d)), d).CanReach(vP)
}

// CandidateMaskID implements Provider.
func (o *Oracle) CandidateMaskID(_ *mesh.Mesh, _ int32, uPt grid.Point, d int32, dPt grid.Point) uint8 {
	if b, ok := o.cache.decision(uPt, dPt, d); ok {
		return b
	}
	return o.cache.decisionMask(o.Mesh, uPt, d, dPt, o.Mesh.FaultyWords())
}

// MCC is the paper's fault-information provider backed by globally known MCC
// boundary information: a preferred neighbour v is excluded when it is unsafe
// or when the (merged) forbidden regions of the MCCs block every monotone v→d
// path — the destination being in the critical region and v in the forbidden
// region of the merged records. The merged information is exactly "the union
// of the fault regions", so the provider consults a cached reachability field
// over the unsafe set.
type MCC struct {
	Set *region.ComponentSet

	cache fieldCache
}

// Name implements Provider.
func (p *MCC) Name() string { return "mcc" }

// InvalidateCache implements CacheInvalidator. It is correct on its own only
// when p.Set has been refreshed in place (region.ComponentSet.Refresh after
// labeling.AddFaults); see CacheInvalidator.
func (p *MCC) InvalidateCache() { p.cache.invalidate(p.Set.Mesh, p.Set.UnionAvoidWords()) }

// SetTelemetry implements telemetry.Instrumentable.
func (p *MCC) SetTelemetry(s *telemetry.Sink) { p.cache.tel = s }

// field looks up d's field, swept over the union of the fault regions.
func (p *MCC) field(u, v, d grid.Point, dID int32) *minimal.Field {
	return p.cache.lookup(p.Set.Mesh, u, v, d, dID, p.Set.UnionAvoidWords())
}

// AllowedID is the per-direction reference decision (see Oracle.AllowedID).
func (p *MCC) AllowedID(u, v, d int32) bool {
	// v inside a fault region is excluded: the paper never forwards into an
	// MCC. The destination itself is permitted so that routes can terminate
	// even if the destination is a labelled (healthy) node.
	if v != d && p.Set.Labeling != nil && p.Set.Labeling.UnsafeAt(int(v)) {
		return false
	}
	m := p.Set.Mesh
	vP := m.Point(int(v))
	if f := p.cache.covered(d, vP); f != nil {
		return f.CanReachCovered(vP)
	}
	return p.field(m.Point(int(u)), vP, m.Point(int(d)), d).CanReach(vP)
}

// CandidateMaskID implements Provider. The unsafe-node pre-check of
// AllowedID is subsumed by the field: the union reachability field is built
// over the unsafe set, so an unsafe neighbour's bit is already clear.
func (p *MCC) CandidateMaskID(_ *mesh.Mesh, _ int32, uPt grid.Point, d int32, dPt grid.Point) uint8 {
	if b, ok := p.cache.decision(uPt, dPt, d); ok {
		return b
	}
	return p.cache.decisionMask(p.Set.Mesh, uPt, d, dPt, p.Set.UnionAvoidWords())
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

// Block is the rectangular-faulty-block baseline provider: the routing avoids
// every node inside a fault block and excludes a step when the union of the
// blocks closes off every monotone path from the neighbour to the destination
// (the block model's own boundary information, given the same merging
// treatment as the MCC model for a fair comparison).
type Block struct {
	Regions *block.Regions

	cache    fieldCache
	scratchW []uint64 // destination-carve-out copy of the avoid bitset
}

// Name implements Provider.
func (p *Block) Name() string { return p.Regions.Model.String() }

// SetTelemetry implements telemetry.Instrumentable.
func (p *Block) SetTelemetry(s *telemetry.Sink) { p.cache.tel = s }

// avoidFor returns the obstacle bitset of fields toward dst: the union of the
// blocks. When the destination sits inside a block (healthy but swallowed by
// the coarse model), its bit is carved out of a scratch copy so routes can at
// least try to terminate.
func (p *Block) avoidFor(dst grid.Point, dID int32) []uint64 {
	avoid := p.Regions.AvoidWords()
	if p.Regions.Contains(dst) {
		if cap(p.scratchW) < len(avoid) {
			p.scratchW = make([]uint64, len(avoid))
		}
		w := p.scratchW[:len(avoid)]
		copy(w, avoid)
		w[dID>>6] &^= 1 << uint(dID&63)
		avoid = w
	}
	return avoid
}

func (p *Block) field(u, v, d grid.Point, dID int32) *minimal.Field {
	return p.cache.lookup(p.Regions.Mesh, u, v, d, dID, p.avoidFor(d, dID))
}

// AllowedID is the per-direction reference decision (see Oracle.AllowedID).
func (p *Block) AllowedID(u, v, d int32) bool {
	if v != d && p.Regions.ContainsID(v) {
		return false
	}
	m := p.Regions.Mesh
	vP := m.Point(int(v))
	if f := p.cache.covered(d, vP); f != nil {
		return f.CanReachCovered(vP)
	}
	return p.field(m.Point(int(u)), vP, m.Point(int(d)), d).CanReach(vP)
}

// CandidateMaskID implements Provider. As with MCC, the
// inside-a-block pre-check is subsumed by the avoid set the field is built
// over (with the same destination carve-out as AllowedID's v == d escape).
func (p *Block) CandidateMaskID(_ *mesh.Mesh, _ int32, uPt grid.Point, d int32, dPt grid.Point) uint8 {
	if b, ok := p.cache.decision(uPt, dPt, d); ok {
		return b
	}
	return p.cache.decisionMask(p.Regions.Mesh, uPt, d, dPt, p.avoidFor(dPt, d))
}

// LocalGreedy is the floor baseline: it only knows the fault status of the
// current node's neighbours and therefore accepts any healthy preferred
// neighbour. It can run into dead ends, which count as routing failures.
type LocalGreedy struct{}

// Name implements Provider.
func (LocalGreedy) Name() string { return "local-greedy" }

// AllowedID is the per-direction reference decision (see Oracle.AllowedID).
func (LocalGreedy) AllowedID(_, _, _ int32) bool { return true }

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

// AllowedID is the per-direction reference decision (see Oracle.AllowedID).
func (p *Labeled) AllowedID(_, v, d int32) bool {
	return v == d || !p.Labeling.UnsafeAt(int(v))
}

// CandidateMaskID implements Provider: the healthy forward set minus
// unsafe neighbours (the destination excepted), computed on the fly — the
// labelling carries no per-destination state worth memoising.
func (p *Labeled) CandidateMaskID(m *mesh.Mesh, u int32, uPt grid.Point, d int32, dPt grid.Point) uint8 {
	return safeForwardMask(m, p.Labeling, u, uPt, d, dPt)
}
