// Package region turns a labelling into fault regions: the minimal connected
// components (MCCs) of the paper, their geometry (edge nodes, corners,
// 2-D sections, edges of the 3-D polyhedron) and the per-component monotone
// blocking relation that realises the forbidden/critical region rules used by
// the routing algorithms.
package region

import (
	"fmt"

	"mccmesh/internal/grid"
	"mccmesh/internal/labeling"
	"mccmesh/internal/mesh"
)

// Component is one connected fault region: a maximal set of unsafe nodes
// connected through mesh links. Under the MCC labelling these are exactly the
// paper's minimal connected components. Membership queries go through the
// owning set's dense node→component array, not a per-component map.
type Component struct {
	// ID is the index of the component within its ComponentSet.
	ID int
	// Nodes lists the member coordinates in dense-index order.
	Nodes []grid.Point
	// Bounds is the bounding box of the member nodes.
	Bounds grid.Box
	// FaultyCount, UselessCount and CantReachCount break the membership down
	// by label.
	FaultyCount, UselessCount, CantReachCount int

	set *ComponentSet
}

// Size returns the number of nodes in the component.
func (c *Component) Size() int { return len(c.Nodes) }

// NonFaulty returns the number of healthy nodes absorbed by the component.
func (c *Component) NonFaulty() int { return c.UselessCount + c.CantReachCount }

// Has reports whether p belongs to the component.
func (c *Component) Has(p grid.Point) bool {
	m := c.set.Mesh
	return m.InBounds(p) && c.set.byNode[m.Index(p)] == c.ID
}

// HasID reports membership by dense node ID (the index-first fast path).
func (c *Component) HasID(id int32) bool {
	return id >= 0 && c.set.byNode[id] == c.ID
}

// AddWords sets the component's nodes in w, a bitset over dense node IDs
// (allocated over the whole mesh when nil), and returns w: the obstacle form
// of one component, or of several added into one bitset.
func (c *Component) AddWords(w []uint64) []uint64 {
	m := c.set.Mesh
	if w == nil {
		w = make([]uint64, (m.NodeCount()+63)/64)
	}
	for _, p := range c.Nodes {
		id := m.ID(p)
		w[id>>6] |= 1 << uint(id&63)
	}
	return w
}

// String implements fmt.Stringer.
func (c *Component) String() string {
	return fmt.Sprintf("MCC#%d{nodes=%d faulty=%d useless=%d cantreach=%d bounds=%v}",
		c.ID, len(c.Nodes), c.FaultyCount, c.UselessCount, c.CantReachCount, c.Bounds)
}

// ComponentSet is the collection of fault regions of one labelling together
// with a node → component index for O(1) lookups. After the underlying
// labelling absorbed new faults (labeling.AddFaults) or repairs
// (labeling.RemoveFaults), Refresh re-extracts the components in place — same
// struct, same byNode array — so routing providers holding the set stay valid
// across mid-run fault churn.
type ComponentSet struct {
	// Mesh is the mesh the components were extracted from.
	Mesh *mesh.Mesh
	// Labeling is the labelling the components came from; nil for fault-only
	// clusters (FindFaultClusters).
	Labeling   *labeling.Labeling
	Components []*Component

	byNode []int // dense node index -> component ID, or -1

	member func(idx int) bool           // membership rule, kept for Refresh
	count  func(*Component, grid.Point) // label accounting, kept for Refresh
	avoidW []uint64                     // cached union obstacle bitset (fault-only sets)

	// Extraction storage, reused across Refresh calls so the per-churn-event
	// re-extraction allocates nothing in steady state: slab backs the
	// Component structs, arena backs every component's Nodes slice, sizes /
	// stack / adj are flood-fill scratch.
	slab  []Component
	arena []grid.Point
	sizes []int32
	stack []int32
	adj   []grid.Point
}

// Adjacent reports whether two nodes belong to the same fault region when both
// are unsafe: they differ by at most one in each coordinate and in at most two
// coordinates overall. This is 8-connectivity in 2-D and 18-connectivity
// (face + edge adjacency, but not corner adjacency) in 3-D, matching the
// paper's Figure 5, where the diagonally adjacent faults (6,7,5) and (7,6,5)
// belong to the large MCC while the corner-adjacent (7,8,4) forms its own.
//
// Edge-adjacent unsafe nodes must share a region because together they can
// pinch off minimal paths that neither blocks alone; corner-adjacent nodes in
// 3-D cannot.
func Adjacent(p, q grid.Point) bool {
	if p == q {
		return false
	}
	dx := abs(p.X - q.X)
	dy := abs(p.Y - q.Y)
	dz := abs(p.Z - q.Z)
	if dx > 1 || dy > 1 || dz > 1 {
		return false
	}
	return dx+dy+dz <= 2
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// adjacencyDeltas2D and adjacencyDeltas3D are the offsets of the MCC region
// adjacency (see Adjacent); adjacencyDeltas3D extends the 2-D set, so the 2-D
// deltas are its prefix. Package-level so adjacentPoints allocates nothing.
var (
	adjacencyDeltas2D = [][3]int{
		{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0},
		{1, 1, 0}, {1, -1, 0}, {-1, 1, 0}, {-1, -1, 0},
	}
	adjacencyDeltas3D = append(append([][3]int{}, adjacencyDeltas2D...),
		[3]int{0, 0, 1}, [3]int{0, 0, -1},
		[3]int{1, 0, 1}, [3]int{1, 0, -1}, [3]int{-1, 0, 1}, [3]int{-1, 0, -1},
		[3]int{0, 1, 1}, [3]int{0, 1, -1}, [3]int{0, -1, 1}, [3]int{0, -1, -1},
	)
)

// adjacentPoints appends to dst the in-bounds points adjacent to p under the
// MCC region adjacency.
func adjacentPoints(m *mesh.Mesh, dst []grid.Point, p grid.Point) []grid.Point {
	deltas := adjacencyDeltas3D
	if m.Is2D() {
		deltas = adjacencyDeltas2D
	}
	for _, d := range deltas {
		q := grid.Point{X: p.X + d[0], Y: p.Y + d[1], Z: p.Z + d[2]}
		if m.InBounds(q) {
			dst = append(dst, q)
		}
	}
	return dst
}

// FindMCCs extracts the connected components of unsafe nodes from a labelling
// under the MCC region adjacency (see Adjacent).
func FindMCCs(l *labeling.Labeling) *ComponentSet {
	return findComponents(l.Mesh(), func(idx int) bool { return l.StatusAt(idx).Unsafe() }, l, statusCounter(l))
}

// FindFaultClusters extracts the connected components of *faulty* nodes only,
// ignoring useless / can't-reach labels, under the same region adjacency.
// Used to seed the rectangular faulty-block baseline.
func FindFaultClusters(m *mesh.Mesh) *ComponentSet {
	return findComponents(m, m.FaultyAt, nil, func(c *Component, p grid.Point) { c.FaultyCount++ })
}

func statusCounter(l *labeling.Labeling) func(*Component, grid.Point) {
	return func(c *Component, p grid.Point) {
		switch l.Status(p) {
		case labeling.Faulty:
			c.FaultyCount++
		case labeling.Useless:
			c.UselessCount++
		case labeling.CantReach:
			c.CantReachCount++
		}
	}
}

func findComponents(m *mesh.Mesh, member func(idx int) bool, l *labeling.Labeling, count func(*Component, grid.Point)) *ComponentSet {
	set := &ComponentSet{
		Mesh:     m,
		Labeling: l,
		byNode:   make([]int, m.NodeCount()),
		member:   member,
		count:    count,
	}
	set.extract()
	return set
}

// extract (re)computes the components from the current membership rule into
// the set's existing storage. It runs in two passes so the steady-state churn
// path allocates nothing: the flood fill assigns component IDs, counts and
// bounds into the reusable slab, then the node sweep carves every component's
// Nodes slice out of the shared arena — in dense-index order by construction,
// so no sort is needed.
func (s *ComponentSet) extract() {
	m := s.Mesh
	n := m.NodeCount()
	s.avoidW = nil // byNode is about to change; rebuild the bitset on demand
	for i := range s.byNode {
		s.byNode[i] = -1
	}
	// Pass 1: flood-fill IDs, counts and bounds. Slab pointers are only taken
	// per fill (the slab cannot grow mid-fill), and handed out only after the
	// slab has reached its final length.
	s.slab = s.slab[:0]
	s.sizes = s.sizes[:0]
	total := 0
	stack, adj := s.stack, s.adj
	for start := 0; start < n; start++ {
		if !s.member(start) || s.byNode[start] != -1 {
			continue
		}
		id := len(s.slab)
		s.slab = append(s.slab, Component{
			ID:     id,
			set:    s,
			Bounds: grid.Box{Min: grid.Point{X: 1}, Max: grid.Point{}}, // empty
		})
		comp := &s.slab[id]
		size := int32(0)
		stack = append(stack[:0], int32(start))
		s.byNode[start] = id
		for len(stack) > 0 {
			idx := int(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			p := m.Point(idx)
			size++
			comp.Bounds = comp.Bounds.Extend(p)
			s.count(comp, p)
			adj = adjacentPoints(m, adj[:0], p)
			for _, q := range adj {
				qi := m.Index(q)
				if s.member(qi) && s.byNode[qi] == -1 {
					s.byNode[qi] = id
					stack = append(stack, int32(qi))
				}
			}
		}
		s.sizes = append(s.sizes, size)
		total += int(size)
	}
	s.stack, s.adj = stack[:0], adj[:0]
	// Pass 2: carve Nodes from the arena and fill them in index order.
	if cap(s.arena) < total {
		s.arena = make([]grid.Point, 0, total)
	}
	off := 0
	for i := range s.slab {
		size := int(s.sizes[i])
		s.slab[i].Nodes = s.arena[off : off : off+size]
		off += size
	}
	for idx := 0; idx < n; idx++ {
		if id := s.byNode[idx]; id >= 0 {
			c := &s.slab[id]
			c.Nodes = append(c.Nodes, m.Point(idx))
		}
	}
	s.Components = s.Components[:0]
	for i := range s.slab {
		s.Components = append(s.Components, &s.slab[i])
	}
}

// Refresh re-extracts the components after the underlying labelling (or fault
// set, for fault-only clusters) changed, mutating the set in place so that
// holders of the *ComponentSet — routing providers, cached models — see the
// new regions without being rebuilt. The re-extraction is direction-agnostic:
// fault injections that grow or merge components and repairs that shrink,
// split or dissolve them all land on the same canonical component list
// (components numbered in dense-index order of their first node). Components
// handed out before the call are invalidated.
func (s *ComponentSet) Refresh() { s.extract() }

// ComponentOf returns the component containing p, or nil if p is not part of
// any fault region.
func (s *ComponentSet) ComponentOf(p grid.Point) *Component {
	if !s.Mesh.InBounds(p) {
		return nil
	}
	id := s.byNode[s.Mesh.Index(p)]
	if id < 0 {
		return nil
	}
	return s.Components[id]
}

// Len returns the number of components.
func (s *ComponentSet) Len() int { return len(s.Components) }

// TotalNodes returns the total number of nodes across all components.
func (s *ComponentSet) TotalNodes() int {
	n := 0
	for _, c := range s.Components {
		n += c.Size()
	}
	return n
}

// TotalNonFaulty returns the number of healthy nodes absorbed across all
// components (the paper's first evaluation metric).
func (s *ComponentSet) TotalNonFaulty() int {
	n := 0
	for _, c := range s.Components {
		n += c.NonFaulty()
	}
	return n
}

// Largest returns the component with the most nodes, or nil if there is none.
func (s *ComponentSet) Largest() *Component {
	var best *Component
	for _, c := range s.Components {
		if best == nil || c.Size() > best.Size() {
			best = c
		}
	}
	return best
}
