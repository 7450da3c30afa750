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
// Every obstacle set is a bitset over dense node IDs (bit set = avoid; nil
// for none): the mesh fault words, a labelling's unsafe words, a block
// table's membership words. The reachability Field is a flat bitset over
// box-local indices, and one sweep fills it, a box row at a time with a
// word-parallel shift cascade; boxes wider than 64 nodes are swept as strips
// of at most 64 columns. ReachabilityWordsInto rebuilds a field in place,
// reusing the previous bitset storage, and Resweep brings a field up to date
// after an obstacle change by re-sweeping only the rows the change can reach;
// the routing providers' field caches lean on both under fault churn.
package minimal

import (
	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
)

// Exists reports whether a monotone path from s to d exists inside the mesh
// that avoids every node set in avoid. The endpoints must lie inside the mesh
// and be free of obstacles; otherwise Exists returns false.
func Exists(m *mesh.Mesh, avoid []uint64, s, d grid.Point) bool {
	return m.InBounds(s) && m.InBounds(d) && ReachabilityWordsInto(nil, m, avoid, s, d).CanReach(s)
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

// ReachabilityWordsInto computes the monotone-reachability field toward d
// over the box spanned by s and d, treating the nodes set in the bitset avoid
// as obstacles. Both endpoints must lie inside m. It reuses f's struct and
// bitset storage when f is non-nil (growing the storage only if the new box
// needs more words) and then returns f: the routing providers' field caches
// rebuild fields this way without allocating.
func ReachabilityWordsInto(f *Field, m *mesh.Mesh, avoid []uint64, s, d grid.Point) *Field {
	box := grid.BoxOf(s, d)
	if f == nil {
		f = &Field{}
	}
	f.m = m
	f.orient = grid.OrientationOf(s, d)
	f.box = box
	f.d = d
	f.dims = [3]int{box.Max.X - box.Min.X + 1, box.Max.Y - box.Min.Y + 1, box.Max.Z - box.Min.Z + 1}
	nbits := f.dims[0] * f.dims[1] * f.dims[2]
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
	dc := f.orient.Canon(s, d)
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
// equal the obstacle set f was built over outside the changed cells.
func (f *Field) Resweep(avoid []uint64, cut Cut) {
	dc := f.orient.Canon(f.source(), f.d)
	f.sweepRows(avoid, min(cut.Y, dc.Y), min(cut.Z, dc.Z))
}

// source returns the corner of f's box opposite the destination.
func (f *Field) source() grid.Point {
	b := f.box
	return grid.Point{X: b.Min.X + b.Max.X - f.d.X, Y: b.Min.Y + b.Max.Y - f.d.Y, Z: b.Min.Z + b.Max.Z - f.d.Z}
}

// sweepRows runs the row sweep over every row of f with canonical
// coordinates cy ≤ yTop and cz ≤ zTop. The box is cut into strips of at most
// 64 columns, swept one after another starting with the strip nearest d, so
// each strip reads only finished cells: its own forward-Y/Z rows and, at its
// d-side edge, the column of the strip swept before it. A box at most 64
// wide is one strip.
func (f *Field) sweepRows(avoid []uint64, yTop, zTop int) {
	if avoid == nil {
		// No obstacles: an empty bitset keeps the row loop free of a
		// per-row nil test.
		avoid = make([]uint64, (f.m.NodeCount()+63)/64)
	}
	w := f.dims[0]
	for done := 0; done < w; done += 64 {
		n := min(w-done, 64)
		x0 := done
		if f.orient.SX > 0 {
			x0 = w - done - n
		}
		f.sweepStrip(avoid, x0, n, done > 0, yTop, zTop)
	}
}

// sweepStrip sweeps box-local columns [x0, x0+n) of the rows sweepRows names,
// in decreasing order of remaining distance to d, so the forward-Y and
// forward-Z rows a row reads are either swept before it or lie outside the
// range and already hold their final bits. Each row is one word: extract its
// free bits and the forward rows' bits, then resolve the X recurrence
// ok(x) = free(x) ∧ (seed(x) ∨ ok(x±1)) with a logarithmic shift-propagate
// cascade. In the first strip d seeds its own row (d sits in the strip's
// d-side column); in a later one (carry), each row's d-side edge cell is
// seeded by its forward-X neighbour in the finished strip beside it.
func (f *Field) sweepStrip(avoid []uint64, x0, n int, carry bool, yTop, zTop int) {
	dims := f.m.Dims()
	orient, box, words, w, h := f.orient, f.box, f.words, f.dims[0], f.dims[1]
	s := f.source()
	dc := orient.Canon(s, f.d)
	// Forward Y/Z steps as box-local and mesh-ID deltas; a row's start moves
	// back by one Y step per cy.
	locDY, locDZ := orient.SY*w, orient.SZ*w*h
	idDY := orient.SY * dims.X
	rowMask := ^uint64(0)
	if n < 64 {
		rowMask = 1<<uint(n) - 1
	}
	// edge is the strip bit of its d-side column, next the offset from the
	// strip's first cell to that cell's forward-X neighbour.
	edge := uint(0)
	if orient.SX > 0 {
		edge = uint(n - 1)
	}
	next := int(edge) + orient.SX
	for cz := zTop; cz >= 0; cz-- {
		// idRow and locRow address the strip's first cell in the row.
		py, pz := s.Y+yTop*orient.SY, s.Z+cz*orient.SZ
		idRow := x0 + box.Min.X + dims.X*(py+dims.Y*pz)
		locRow := x0 + w*((py-box.Min.Y)+h*(pz-box.Min.Z))
		for cy := yTop; cy >= 0; cy, idRow, locRow = cy-1, idRow-idDY, locRow-locDY {
			free := rowMask &^ rowBits(avoid, idRow, n)
			// seed(x): reachable through a forward Y or Z step, or through
			// the edge; the X recurrence then extends each seed through runs
			// of free cells toward the source side. Bits past the row in
			// seed are cleared by free.
			var seed uint64
			if cy < dc.Y {
				seed = rowBits(words, locRow+locDY, n)
			}
			if cz < dc.Z {
				seed |= rowBits(words, locRow+locDZ, n)
			}
			if carry {
				q := locRow + next
				seed |= (words[q>>6] >> uint(q&63) & 1) << edge
			} else if cy == dc.Y && cz == dc.Z {
				seed |= 1 << edge
			}
			r := seed & free
			run := free
			if orient.SX > 0 {
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
			setBitsRange(words, locRow, n, r)
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

// BitWords exposes the field's bitset words (box-local row-major indexing,
// row width the box's X extent). The routing decision fast path probes
// neighbour bits in place through this view. Callers must not mutate the
// slice, and must treat it as stale after the next build into this field.
func (f *Field) BitWords() []uint64 { return f.words }

// PrepareStorage hands the field a words buffer to use for its next build:
// ReachabilityWordsInto reuses the buffer as long as its capacity suffices. The
// routing caches carve these from arena chunks so cold builds don't allocate
// per field.
func (f *Field) PrepareStorage(words []uint64) { f.words = words[:0] }

// Covers reports whether p lies inside the field's box, i.e. whether the
// field can answer CanReach(p) affirmatively at all.
func (f *Field) Covers(p grid.Point) bool { return f.box.Contains(p) }

// Orientation returns the travel orientation of the field.
func (f *Field) Orientation() grid.Orientation { return f.orient }

// Box returns the box the field spans.
func (f *Field) Box() grid.Box { return f.box }

// Path returns one monotone path from s to d avoiding every node set in
// avoid, or nil if none exists (as when an endpoint lies outside the mesh).
// The path includes both endpoints.
func Path(m *mesh.Mesh, avoid []uint64, s, d grid.Point) []grid.Point {
	if !m.InBounds(s) || !m.InBounds(d) {
		return nil
	}
	f := ReachabilityWordsInto(nil, m, avoid, s, d)
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
// the distance to d, no node is set in avoid, and the endpoints match.
func IsMinimalPath(m *mesh.Mesh, avoid []uint64, s, d grid.Point, path []grid.Point) bool {
	if len(path) == 0 || path[0] != s || path[len(path)-1] != d {
		return false
	}
	if len(path) != grid.Manhattan(s, d)+1 {
		return false
	}
	for i, p := range path {
		if !m.InBounds(p) || has(avoid, m.ID(p)) {
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
// avoid the nodes set in avoid, saturating at the given cap (use cap <= 0 for
// no cap). Both endpoints must lie inside m. It is used by the adaptivity
// experiment (E6).
func CountPaths(m *mesh.Mesh, avoid []uint64, s, d grid.Point, cap int) int {
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
				if has(avoid, m.ID(p)) {
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

// has reports whether node id is set in the bitset avoid (nil: no node is).
func has(avoid []uint64, id int32) bool {
	return avoid != nil && avoid[id>>6]&(1<<uint(id&63)) != 0
}
