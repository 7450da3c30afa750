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
// reusing the previous bitset storage, and AppendBlocked reads off the few
// nodes of a finished field that are free but cannot reach the destination:
// the routing providers keep only those, not the field.
package minimal

import (
	"math/bits"

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
// is stored as a bitset with each box row starting on a word boundary: row
// (y, z) of the box is the words [(y + h·z)·wpr, (y + h·z + 1)·wpr), with
// wpr = ⌈width/64⌉ and bit x%64 of word x/64 for box-local column x.
type Field struct {
	m      *mesh.Mesh
	orient grid.Orientation
	box    grid.Box
	d      grid.Point
	words  []uint64 // the rows, wpr words each
	dims   [3]int
	wpr    int // words per row
	// blockedRows has bit y + h·z set for each box row (y, z) the sweep
	// found a free node in that cannot reach d; AppendBlocked reads only
	// those rows.
	blockedRows []uint64
}

// ReachabilityWordsInto computes the monotone-reachability field toward d
// over the box spanned by s and d, treating the nodes set in the bitset avoid
// as obstacles. Both endpoints must lie inside m. It reuses f's struct and
// bitset storage when f is non-nil (growing the storage only if the new box
// needs more words) and then returns f: the routing providers rebuild their
// scratch field this way without allocating.
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
	f.wpr = (f.dims[0] + 63) / 64
	// Every word is overwritten whole by the sweep, so recycled storage
	// needs no clearing.
	nwords := f.wpr * f.dims[1] * f.dims[2]
	if cap(f.words) < nwords {
		f.words = make([]uint64, nwords)
	} else {
		f.words = f.words[:nwords]
	}
	f.sweepRows(avoid)
	return f
}

// source returns the corner of f's box opposite the destination.
func (f *Field) source() grid.Point {
	b := f.box
	return grid.Point{X: b.Min.X + b.Max.X - f.d.X, Y: b.Min.Y + b.Max.Y - f.d.Y, Z: b.Min.Z + b.Max.Z - f.d.Z}
}

// sweepRows runs the row sweep over every row of f. The box is cut into
// strips of one word per row (64 columns, fewer in the last), swept one after
// another starting with the strip nearest d, so each strip reads only
// finished cells: its own forward-Y/Z rows and, at its d-side edge, the
// column of the strip swept before it. A box at most 64 wide is one strip.
func (f *Field) sweepRows(avoid []uint64) {
	nrows := f.dims[1] * f.dims[2]
	f.blockedRows = append(f.blockedRows[:0], make([]uint64, (nrows+63)/64)...)
	if avoid == nil {
		// No obstacles: an empty bitset keeps the row loop free of a
		// per-row nil test.
		avoid = make([]uint64, (f.m.NodeCount()+63)/64)
	}
	for k := 0; k < f.wpr; k++ {
		j := k
		if f.orient.SX > 0 {
			j = f.wpr - 1 - k
		}
		f.sweepStrip(avoid, j, k > 0)
	}
}

// sweepStrip sweeps strip j — word j of every row, box-local columns from
// 64·j — in decreasing order of remaining distance to d, so the forward-Y
// and forward-Z rows a row reads are swept before it. Each row is one word:
// extract its free bits and the forward rows' bits, then resolve the X
// recurrence ok(x) = free(x) ∧ (seed(x) ∨ ok(x±1)) with a logarithmic
// shift-propagate cascade. In the first strip d seeds its own row (d sits in
// the strip's d-side column); in a later one (carry), each row's d-side edge
// cell is seeded by its forward-X neighbour in the finished strip beside it.
func (f *Field) sweepStrip(avoid []uint64, j int, carry bool) {
	dims := f.m.Dims()
	orient, box, words, h, wpr := f.orient, f.box, f.words, f.dims[1], f.wpr
	x0 := 64 * j
	n := min(f.dims[0]-x0, 64)
	s := f.source()
	dc := orient.Canon(s, f.d)
	// Forward Y/Z steps as word and mesh-ID deltas; a row's start moves
	// back by one Y step per cy.
	wDY, wDZ := orient.SY*wpr, orient.SZ*wpr*h
	idDY := orient.SY * dims.X
	rowMask := ^uint64(0) >> uint(64-n)
	// edge is the strip bit of its d-side column; its forward-X neighbour
	// in the strip beside it is bit nextBit of the word nextW words on.
	edge, nextW, nextBit := uint(0), -1, uint(63)
	if orient.SX > 0 {
		edge, nextW, nextBit = uint(n-1), 1, 0
	}
	for cz := dc.Z; cz >= 0; cz-- {
		// idRow and wRow address the strip's first cell in the row.
		py, pz := s.Y+dc.Y*orient.SY, s.Z+cz*orient.SZ
		idRow := x0 + box.Min.X + dims.X*(py+dims.Y*pz)
		wRow := j + wpr*((py-box.Min.Y)+h*(pz-box.Min.Z))
		for cy := dc.Y; cy >= 0; cy, idRow, wRow = cy-1, idRow-idDY, wRow-wDY {
			free := rowMask &^ rowBits(avoid, idRow, n)
			// seed(x): reachable through a forward Y or Z step, or through
			// the edge; the X recurrence then extends each seed through runs
			// of free cells toward the source side.
			var seed uint64
			if cy < dc.Y {
				seed = words[wRow+wDY]
			}
			if cz < dc.Z {
				seed |= words[wRow+wDZ]
			}
			if carry {
				seed |= (words[wRow+nextW] >> nextBit & 1) << edge
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
			words[wRow] = r
			if free&^r != 0 {
				row := (wRow - j) / wpr
				f.blockedRows[row>>6] |= 1 << uint(row&63)
			}
		}
	}
}

func (f *Field) at(p grid.Point) bool {
	if !f.box.Contains(p) {
		return false
	}
	x := p.X - f.box.Min.X
	row := p.Y - f.box.Min.Y + f.dims[1]*(p.Z-f.box.Min.Z)
	return f.words[row*f.wpr+x>>6]>>uint(x&63)&1 != 0
}

// CanReach reports whether a monotone path from p to the field's destination
// exists. Points outside the field's box cannot be on any minimal path and
// report false.
func (f *Field) CanReach(p grid.Point) bool { return f.at(p) }

// AppendBlocked appends to dst, in ascending node-ID order, every node of
// f's box that is free in avoid (not set in it; nil for none) but has no
// monotone path to the destination: the field's exceptions to "free means
// reachable". avoid must be the obstacle set f was built over. Each row is
// read a word at a time as free &^ reach, and only the rows the sweep found
// such a node in are read.
func (f *Field) AppendBlocked(dst []int32, avoid []uint64) []int32 {
	dims := f.m.Dims()
	box, w, h := f.box, f.dims[0], f.dims[1]
	for i, rows := range f.blockedRows {
		for ; rows != 0; rows &= rows - 1 {
			row := i<<6 | bits.TrailingZeros64(rows)
			y, z := row%h, row/h
			id := box.Min.X + dims.X*(box.Min.Y+y+dims.Y*(box.Min.Z+z))
			words := f.words[f.wpr*row:]
			for j := 0; j < f.wpr; j++ {
				x := 64 * j
				n := min(w-x, 64)
				blocked := ^words[j] & (^uint64(0) >> uint(64-n))
				if avoid != nil {
					blocked &^= rowBits(avoid, id+x, n)
				}
				for ; blocked != 0; blocked &= blocked - 1 {
					dst = append(dst, int32(id+x+bits.TrailingZeros64(blocked)))
				}
			}
		}
	}
	return dst
}

// rowBits returns bits [start, start+n) of a bitset in the low n bits of a
// word, for a range wholly inside the bitset; the bits above n are garbage
// the caller masks off. n is at most 64.
//
// It is branchless, as row offsets vary row to row: the next word is always
// read, clamped to the last word of the bitset; when the range ends inside
// the first word, what it contributes lands above n (or nowhere, off being
// 0).
func rowBits(words []uint64, start, n int) uint64 {
	w, off := start>>6, uint(start&63)
	return words[w]>>off | words[min(w+1, len(words)-1)]<<(64-off)
}

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
