// Package minimal provides ground-truth computations about minimal (shortest,
// i.e. monotone) paths in a mesh: existence of a monotone path between two
// nodes that avoids an arbitrary obstacle set, extraction of one such path,
// and the full reachability field used by the oracle routing provider.
//
// A routing path from s to d is minimal exactly when every hop moves toward d,
// so minimal paths coincide with monotone lattice paths inside the box spanned
// by s and d. These routines are the reference the MCC model is validated
// against: by the paper's "ultimate fault region" property, a minimal path
// avoiding faults exists iff one avoiding all MCC (unsafe) nodes exists.
//
// # Fast path
//
// The reachability Field is a flat bitset over box-local indices. The sweep
// that fills it runs on dense node IDs — obstacle tests through AvoidID are a
// single array access for the callers that matter (labelings, fault bitsets,
// block tables) — and the per-hop query CanReachID goes from a node ID to a
// bit test without constructing a Point. ReachabilityIDInto rebuilds a field
// in place, reusing the previous bitset storage, and Resweep brings a field up
// to date after an obstacle change by re-sweeping only the rows the change can
// reach; the routing providers' field caches lean on both under fault churn.
package minimal

import (
	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
)

// Avoid reports whether a node must not be used by a path. Implementations
// typically close over a labelling, a fault set or a single fault component.
type Avoid func(grid.Point) bool

// AvoidID is the index-first form of Avoid: the node is named by its dense
// mesh ID. The reachability sweep and the routing providers use it so that an
// obstacle test is one array access instead of a Point→index conversion.
type AvoidID func(id int32) bool

// AvoidNone permits every node.
func AvoidNone(grid.Point) bool { return false }

// AvoidFaulty returns an Avoid that rejects exactly the faulty nodes of m.
func AvoidFaulty(m *mesh.Mesh) Avoid {
	return func(p grid.Point) bool { return m.IsFaulty(p) }
}

// AvoidFaultyID returns an AvoidID that rejects exactly the faulty nodes of m.
func AvoidFaultyID(m *mesh.Mesh) AvoidID {
	return func(id int32) bool { return m.FaultyAt(int(id)) }
}

// Exists reports whether a monotone path from s to d exists inside the mesh
// that avoids every node rejected by avoid. The endpoints themselves must be
// acceptable to avoid; otherwise Exists returns false (unless s == d and s is
// acceptable).
func Exists(m *mesh.Mesh, avoid Avoid, s, d grid.Point) bool {
	f := Reachability(m, avoid, s, d)
	return f.CanReach(s)
}

// Field is the monotone-reachability field toward a fixed destination within
// the box spanned by a source and destination: for every node p in the box,
// whether a monotone path p → d avoiding the obstacle set exists. Membership
// is stored as a flat bitset over box-local indices.
type Field struct {
	m      *mesh.Mesh
	orient grid.Orientation
	box    grid.Box
	d      grid.Point
	words  []uint64 // bitset over box-local indices
	dims   [3]int
}

// Reachability computes the monotone-reachability field toward d over the box
// spanned by s and d, treating avoid-rejected nodes as obstacles.
func Reachability(m *mesh.Mesh, avoid Avoid, s, d grid.Point) *Field {
	return ReachabilityIDInto(nil, m, func(id int32) bool { return avoid(m.Point(int(id))) }, s, d)
}

// ReachabilityID is Reachability with an ID-addressed obstacle set.
func ReachabilityID(m *mesh.Mesh, avoid AvoidID, s, d grid.Point) *Field {
	return ReachabilityIDInto(nil, m, avoid, s, d)
}

// ReachabilityIDInto computes the field like ReachabilityID but reuses f's
// struct and bitset storage when f is non-nil (growing it only if the new box
// needs more words). Callers that rebuild fields under fault churn — the
// routing providers' field caches — use it to keep rebuilds allocation-free.
// The returned pointer is f when f was non-nil.
func ReachabilityIDInto(f *Field, m *mesh.Mesh, avoid AvoidID, s, d grid.Point) *Field {
	orient := grid.OrientationOf(s, d)
	box := grid.BoxOf(s, d)
	if f == nil {
		f = &Field{}
	}
	f.m = m
	f.orient = orient
	f.box = box
	f.d = d
	f.dims = [3]int{
		box.Max.X - box.Min.X + 1,
		box.Max.Y - box.Min.Y + 1,
		box.Max.Z - box.Min.Z + 1,
	}
	nbits := f.dims[0] * f.dims[1] * f.dims[2]
	nwords := (nbits + 63) / 64
	if cap(f.words) < nwords {
		f.words = make([]uint64, nwords)
	} else {
		f.words = f.words[:nwords]
		for i := range f.words {
			f.words[i] = 0
		}
	}

	dims := m.Dims()
	// Mesh-ID delta of one forward X step, and the box-local index deltas of a
	// forward step per axis. Forward on an axis moves the coordinate by the
	// orientation sign, so the deltas carry that sign. Only the X deltas are
	// stepped incrementally; row starts recompute from coordinates.
	meshDX := orient.SX
	locDX := orient.SX
	locDY := orient.SY * f.dims[0]
	locDZ := orient.SZ * f.dims[0] * f.dims[1]

	is2D := m.Is2D()
	// Process points in decreasing order of remaining distance to d, so each
	// node's forward neighbours are already resolved. Iterating the canonical
	// coordinates from the destination backwards achieves this.
	dc := orient.Canon(s, d) // componentwise ≥ 0
	for cz := dc.Z; cz >= 0; cz-- {
		for cy := dc.Y; cy >= 0; cy-- {
			// Mesh ID and box-local index at cx = cy-row start (canonical
			// (dc.X, cy, cz)); stepping cx down moves both by their X delta.
			p := orient.Uncanon(s, grid.Point{X: dc.X, Y: cy, Z: cz})
			id := p.X + dims.X*(p.Y+dims.Y*p.Z)
			loc := (p.X - box.Min.X) + f.dims[0]*((p.Y-box.Min.Y)+f.dims[1]*(p.Z-box.Min.Z))
			for cx := dc.X; cx >= 0; cx, id, loc = cx-1, id-meshDX, loc-locDX {
				if avoid(int32(id)) {
					continue
				}
				if cx == dc.X && cy == dc.Y && cz == dc.Z {
					// p == d: the destination reaches itself.
					f.words[loc>>6] |= 1 << uint(loc&63)
					continue
				}
				ok := false
				if cx < dc.X {
					q := loc + locDX
					ok = f.words[q>>6]&(1<<uint(q&63)) != 0
				}
				if !ok && cy < dc.Y {
					q := loc + locDY
					ok = f.words[q>>6]&(1<<uint(q&63)) != 0
				}
				if !ok && !is2D && cz < dc.Z {
					q := loc + locDZ
					ok = f.words[q>>6]&(1<<uint(q&63)) != 0
				}
				if ok {
					f.words[loc>>6] |= 1 << uint(loc&63)
				}
			}
		}
	}
	return f
}

// ReachabilityWordsInto computes the field like ReachabilityIDInto but takes
// the obstacle set as a bitset over dense node IDs (bit set = avoid) instead
// of a predicate, which lets the sweep run a whole box row at a time: extract
// the row's free bits and the already-resolved forward-Y/Z neighbour rows as
// words, then resolve the X recurrence ok(x) = free(x) ∧ (seed(x) ∨ ok(x±1))
// with a logarithmic shift-propagate cascade — six shift/mask steps per row
// instead of a predicate call and three bit probes per cell. Boxes wider than
// 64 nodes (beyond every mesh in the evaluation) fall back to the per-node
// sweep through a bitset-reading predicate.
//
// The providers' avoid sets are all natively bitsets — the mesh fault words
// for the oracle, the labelling's unsafe words for MCC, the block table's
// membership words for RFB — so this is the build path behind the direction
// masks of the per-hop decision memoisation.
func ReachabilityWordsInto(f *Field, m *mesh.Mesh, avoid []uint64, s, d grid.Point) *Field {
	orient := grid.OrientationOf(s, d)
	box := grid.BoxOf(s, d)
	w := box.Max.X - box.Min.X + 1
	if w > 64 {
		return ReachabilityIDInto(f, m, func(id int32) bool {
			return avoid[id>>6]&(1<<uint(id&63)) != 0
		}, s, d)
	}
	if f == nil {
		f = &Field{}
	}
	f.m = m
	f.orient = orient
	f.box = box
	f.d = d
	f.dims = [3]int{w, box.Max.Y - box.Min.Y + 1, box.Max.Z - box.Min.Z + 1}
	nbits := w * f.dims[1] * f.dims[2]
	nwords := (nbits + 63) / 64
	if cap(f.words) < nwords {
		f.words = make([]uint64, nwords)
	} else {
		f.words = f.words[:nwords]
	}
	// Every bit below nbits is overwritten row by row; only the tail of the
	// last word needs clearing, so recycled storage cannot leak garbage bits
	// to word-level consumers of the finished bitset.
	if t := uint(nbits & 63); t != 0 {
		f.words[nwords-1] &= 1<<t - 1
	}

	dc := orient.Canon(s, d)
	f.sweepRows(avoid, dc.Y, dc.Z)
	return f
}

// Cut names the rows of a field that a change of obstacles can reach: every
// row whose canonical coordinates (distance from the source corner, so the
// destination's row is the highest) are at most Y and at most Z. A row only
// reads the rows nearer to the destination, so a flipped obstacle at canonical
// (y0, z0) can change no row outside Cut{y0, z0}.
type Cut struct{ Y, Z int }

// CutOf returns the rows of f that obstacle changes confined to the box
// changed can reach, or false when changed misses f's box (no bit of f can
// change).
func (f *Field) CutOf(changed grid.Box) (Cut, bool) {
	b := f.box
	if !b.Intersects(changed) {
		return Cut{}, false
	}
	// The source corner sits at canonical 0, so the reach on an axis is the
	// distance from the source's side of the box to the far edge of the
	// overlap. (A flat axis has lo == hi == dv and reaches 0 either way.)
	top := func(lo, hi, clo, chi, dv int) int {
		if dv == hi {
			return min(hi, chi) - lo
		}
		return hi - max(lo, clo)
	}
	return Cut{
		Y: top(b.Min.Y, b.Max.Y, changed.Min.Y, changed.Max.Y, f.d.Y),
		Z: top(b.Min.Z, b.Max.Z, changed.Min.Z, changed.Max.Z, f.d.Z),
	}, true
}

// Resweep brings f up to date with the obstacle bitset avoid after a change
// confined to cut, re-running the row sweep of ReachabilityWordsInto only over
// the rows the change can reach; every other row is kept as it is. avoid must
// equal the obstacle set f was built over outside the changed cells. Resweep
// returns false, leaving f untouched, when f is wider than 64 nodes (built by
// the per-node sweep, which has no row form); the caller rebuilds it instead.
func (f *Field) Resweep(avoid []uint64, cut Cut) bool {
	if f.dims[0] > 64 {
		return false
	}
	dc := f.orient.Canon(f.source(), f.d)
	f.sweepRows(avoid, min(cut.Y, dc.Y), min(cut.Z, dc.Z))
	return true
}

// source returns the corner of f's box opposite the destination.
func (f *Field) source() grid.Point {
	b := f.box
	return grid.Point{X: b.Min.X + b.Max.X - f.d.X, Y: b.Min.Y + b.Max.Y - f.d.Y, Z: b.Min.Z + b.Max.Z - f.d.Z}
}

// sweepRows runs the row-at-a-time sweep over every row of f with canonical
// coordinates cy ≤ yTop and cz ≤ zTop, in decreasing order of remaining
// distance to d: the forward-Y and forward-Z neighbour rows a row reads are
// either swept before it or lie outside the range, and so already hold their
// final bits. f's box is at most 64 wide and its storage is sized.
func (f *Field) sweepRows(avoid []uint64, yTop, zTop int) {
	dims := f.m.Dims()
	orient, box, d, w, h := f.orient, f.box, f.d, f.dims[0], f.dims[1]
	s := f.source()
	dc := orient.Canon(s, d)
	// Forward Y/Z steps as box-local and mesh-ID deltas; a row's start moves
	// back by one Y step per cy.
	locDY, locDZ := orient.SY*w, orient.SZ*w*h
	idDY := orient.SY * dims.X
	rowMask := ^uint64(0)
	if w < 64 {
		rowMask = 1<<uint(w) - 1
	}
	dxBit := uint64(1) << uint(d.X-box.Min.X)
	// Field rows always lie inside f.words, and so do the obstacle rows of a
	// box inside the mesh. A box reaching outside it (a caller's out-of-mesh
	// endpoint) reads its obstacle rows through bitsRange, which zero-fills
	// what lies outside the bitset.
	inMesh := box.Min.X >= 0 && box.Min.Y >= 0 && box.Min.Z >= 0 &&
		box.Max.X < dims.X && box.Max.Y < dims.Y && box.Max.Z < dims.Z
	for cz := zTop; cz >= 0; cz-- {
		py, pz := s.Y+yTop*orient.SY, s.Z+cz*orient.SZ
		idRow := box.Min.X + dims.X*(py+dims.Y*pz)
		locRow := w * ((py - box.Min.Y) + h*(pz-box.Min.Z))
		for cy := yTop; cy >= 0; cy, idRow, locRow = cy-1, idRow-idDY, locRow-locDY {
			var obstacles uint64
			if inMesh {
				obstacles = rowBits(avoid, idRow, w)
			} else {
				obstacles = bitsRange(avoid, idRow, w)
			}
			free := ^obstacles & rowMask
			// seed(x): reachable through a forward Y or Z step (or being the
			// destination itself); the X recurrence then extends each seed
			// through runs of free cells toward the source side. Bits past
			// the row in seed are cleared by free.
			var seed uint64
			if cy < dc.Y {
				seed = rowBits(f.words, locRow+locDY, w)
			}
			if cz < dc.Z {
				seed |= rowBits(f.words, locRow+locDZ, w)
			}
			if cy == dc.Y && cz == dc.Z {
				seed |= dxBit
			}
			r := seed & free
			run := free
			if orient.SX >= 0 {
				// d on the high-x side: ok(x) looks at ok(x+1), so set bits
				// propagate downward. run(x) tracks "free on [x, x+k)".
				r |= (r >> 1) & run
				run &= run >> 1
				r |= (r >> 2) & run
				run &= run >> 2
				r |= (r >> 4) & run
				run &= run >> 4
				r |= (r >> 8) & run
				run &= run >> 8
				r |= (r >> 16) & run
				run &= run >> 16
				r |= (r >> 32) & run
			} else {
				r |= (r << 1) & run
				run &= run << 1
				r |= (r << 2) & run
				run &= run << 2
				r |= (r << 4) & run
				run &= run << 4
				r |= (r << 8) & run
				run &= run << 8
				r |= (r << 16) & run
				run &= run << 16
				r |= (r << 32) & run
			}
			setBitsRange(f.words, locRow, w, r)
		}
	}
}

// setBitsRange writes v's low n bits into bits [start, start+n) of the
// bitset, leaving every other bit untouched. start must be non-negative and
// n at most 64.
func setBitsRange(words []uint64, start, n int, v uint64) {
	m := ^uint64(0)
	if n < 64 {
		m = 1<<uint(n) - 1
		v &= m
	}
	w, off := start>>6, uint(start&63)
	words[w] = words[w]&^(m<<off) | v<<off
	if off != 0 && int(off)+n > 64 {
		sh := 64 - off
		words[w+1] = words[w+1]&^(m>>sh) | v>>sh
	}
}

func (f *Field) index(p grid.Point) int {
	x := p.X - f.box.Min.X
	y := p.Y - f.box.Min.Y
	z := p.Z - f.box.Min.Z
	return x + f.dims[0]*(y+f.dims[1]*z)
}

func (f *Field) at(p grid.Point) bool {
	if !f.box.Contains(p) {
		return false
	}
	i := f.index(p)
	return f.words[i>>6]&(1<<uint(i&63)) != 0
}

// CanReach reports whether a monotone path from p to the field's destination
// exists. Points outside the field's box cannot be on any minimal path and
// report false.
func (f *Field) CanReach(p grid.Point) bool { return f.at(p) }

// CanReachID is CanReach addressed by dense node ID, for callers that hold
// IDs rather than Points. (The routing providers' per-hop path holds the
// Point already and goes through Covers + CanReachCovered instead.)
func (f *Field) CanReachID(id int32) bool {
	return f.at(f.m.Point(int(id)))
}

// CanReachCovered is CanReach without the box check: the caller must have
// established Covers(p). The routing providers' caches verify coverage once
// per lookup and then skip re-verifying it per bit test.
func (f *Field) CanReachCovered(p grid.Point) bool {
	i := f.index(p)
	return f.words[i>>6]&(1<<uint(i&63)) != 0
}

// rowBits returns bits [start, start+n) of a bitset in the low n bits of a
// word, for a range wholly inside the bitset; the bits above n are garbage
// the caller masks off. n is at most 64.
func rowBits(words []uint64, start, n int) uint64 {
	w, off := start>>6, uint(start&63)
	out := words[w] >> off
	if int(off)+n > 64 {
		out |= words[w+1] << (64 - off)
	}
	return out
}

// bitsRange extracts bits [start, start+n) of a bitset as the low n bits of a
// word, zero-filling positions outside the bitset (including negative
// starts). n must be at most 64.
func bitsRange(words []uint64, start, n int) uint64 {
	if n <= 0 {
		return 0
	}
	if start < 0 {
		if start+n <= 0 {
			return 0
		}
		return bitsRange(words, 0, start+n) << uint(-start)
	}
	if start >= len(words)*64 {
		return 0
	}
	w, off := start>>6, uint(start&63)
	out := words[w] >> off
	if off != 0 && w+1 < len(words) {
		out |= words[w+1] << (64 - off)
	}
	if n < 64 {
		out &= 1<<uint(n) - 1
	}
	return out
}

// Words returns the number of 64-bit words currently backing the field's
// bitset (a sizing hint for storage arenas).
func (f *Field) Words() int { return len(f.words) }

// BitWords exposes the field's bitset words (box-local row-major indexing,
// row width the box's X extent). The routing decision fast path probes
// neighbour bits in place through this view. Callers must not mutate the
// slice, and must treat it as stale after the next build into this field.
func (f *Field) BitWords() []uint64 { return f.words }

// PrepareStorage hands the field a words buffer to use for its next build:
// ReachabilityIDInto reuses the buffer as long as its capacity suffices. The
// routing caches carve these from arena chunks so cold builds don't allocate
// per field.
func (f *Field) PrepareStorage(words []uint64) { f.words = words[:0] }

// Covers reports whether p lies inside the field's box, i.e. whether the
// field can answer CanReach(p) affirmatively at all.
func (f *Field) Covers(p grid.Point) bool { return f.box.Contains(p) }

// Destination returns the destination the field was computed for.
func (f *Field) Destination() grid.Point { return f.d }

// Orientation returns the travel orientation of the field.
func (f *Field) Orientation() grid.Orientation { return f.orient }

// Box returns the box the field spans.
func (f *Field) Box() grid.Box { return f.box }

// Path returns one monotone path from s to d avoiding the obstacles the field
// was built with, or nil if none exists. The path includes both endpoints.
func Path(m *mesh.Mesh, avoid Avoid, s, d grid.Point) []grid.Point {
	f := Reachability(m, avoid, s, d)
	if !f.CanReach(s) {
		return nil
	}
	axes := m.Axes()
	path := []grid.Point{s}
	cur := s
	for cur != d {
		moved := false
		for _, a := range axes {
			if cur.Axis(a) == d.Axis(a) {
				continue
			}
			q := f.orient.Ahead(cur, a)
			if f.CanReach(q) {
				cur = q
				path = append(path, cur)
				moved = true
				break
			}
		}
		if !moved {
			// Unreachable by construction of the field; guard against bugs.
			return nil
		}
	}
	return path
}

// IsMinimalPath reports whether path is a valid minimal path from s to d over
// the mesh: consecutive hops are mesh neighbours, every hop strictly reduces
// the distance to d, no node is rejected by avoid, and the endpoints match.
func IsMinimalPath(m *mesh.Mesh, avoid Avoid, s, d grid.Point, path []grid.Point) bool {
	if len(path) == 0 || path[0] != s || path[len(path)-1] != d {
		return false
	}
	if len(path) != grid.Manhattan(s, d)+1 {
		return false
	}
	for i, p := range path {
		if !m.InBounds(p) || avoid(p) {
			return false
		}
		if i == 0 {
			continue
		}
		if grid.Manhattan(path[i-1], p) != 1 {
			return false
		}
		if grid.Manhattan(p, d) != grid.Manhattan(path[i-1], d)-1 {
			return false
		}
	}
	return true
}

// CountPaths returns the number of distinct monotone paths from s to d that
// avoid the obstacle set, saturating at the given cap (use cap <= 0 for no
// cap). It is used by the adaptivity experiment (E6).
func CountPaths(m *mesh.Mesh, avoid Avoid, s, d grid.Point, cap int) int {
	orient := grid.OrientationOf(s, d)
	box := grid.BoxOf(s, d)
	dims := [3]int{box.Max.X - box.Min.X + 1, box.Max.Y - box.Min.Y + 1, box.Max.Z - box.Min.Z + 1}
	counts := make([]int, dims[0]*dims[1]*dims[2])
	index := func(p grid.Point) int {
		return (p.X - box.Min.X) + dims[0]*((p.Y-box.Min.Y)+dims[1]*(p.Z-box.Min.Z))
	}
	sat := func(v int) int {
		if cap > 0 && v > cap {
			return cap
		}
		return v
	}
	axes := m.Axes()
	dc := orient.Canon(s, d)
	for cz := dc.Z; cz >= 0; cz-- {
		for cy := dc.Y; cy >= 0; cy-- {
			for cx := dc.X; cx >= 0; cx-- {
				c := grid.Point{X: cx, Y: cy, Z: cz}
				p := orient.Uncanon(s, c)
				if avoid(p) {
					continue
				}
				if p == d {
					counts[index(p)] = 1
					continue
				}
				total := 0
				for _, a := range axes {
					if c.Axis(a) >= dc.Axis(a) {
						continue
					}
					q := orient.Ahead(p, a)
					total = sat(total + counts[index(q)])
				}
				counts[index(p)] = total
			}
		}
	}
	return counts[index(s)]
}
