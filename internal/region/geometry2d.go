package region

import (
	"sort"

	"mccmesh/internal/grid"
	"mccmesh/internal/nodeset"
)

// EdgeNodes returns the edge nodes of component c: the safe, in-bounds nodes
// adjacent (through a mesh link) to at least one node of c. They form the ring
// the identification messages of Algorithm 2 travel along.
func (s *ComponentSet) EdgeNodes(c *Component) []grid.Point {
	m := s.Mesh
	seen := nodeset.New(m.NodeCount())
	var out []grid.Point
	for _, p := range c.Nodes {
		for _, d := range m.Directions() {
			q, ok := m.Neighbor(p, d)
			if !ok || seen.Has(m.ID(q)) {
				continue
			}
			if s.isSafe(q) {
				seen.Add(m.ID(q))
				out = append(out, q)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return m.Index(out[i]) < m.Index(out[j]) })
	return out
}

func (s *ComponentSet) isSafe(p grid.Point) bool {
	if s.Labeling != nil {
		return s.Labeling.Safe(p)
	}
	return s.Mesh.InBounds(p) && s.ComponentOf(p) == nil
}

// Corner classification for 2-D MCCs (Section 3 of the paper).
type Corners2D struct {
	// Initialization is the corner with two edge nodes of the MCC in the
	// forward X and forward Y directions — the node the identification process
	// starts from. Missing (off-mesh) corners are reported by Found == false.
	Initialization grid.Point
	// Opposite is the corner with two edge nodes in the backward X and
	// backward Y directions, where the two identification messages meet.
	Opposite grid.Point
	// Found reports whether both corners exist inside the mesh.
	Found bool
}

// Corners2D locates the initialization and opposite corners of a 2-D MCC for
// the labelling's orientation. The initialization corner is diagonally
// "behind" (toward the source) the component's nose; the opposite corner is
// diagonally "ahead" of its far tip.
func (s *ComponentSet) Corners2D(c *Component) Corners2D {
	if s.Labeling == nil {
		return Corners2D{}
	}
	orient := s.Labeling.Orientation()
	m := s.Mesh

	// The nose of the MCC: the member minimising the canonical x+y (closest to
	// the source corner of its bounding box); the far tip maximises it.
	var nose, tip grid.Point
	noseKey, tipKey := int(^uint(0)>>1), -(int(^uint(0)>>1) - 1)
	anchor := grid.Point{} // canonicalisation anchor; any fixed point works
	for _, p := range c.Nodes {
		cp := orient.Canon(anchor, p)
		k := cp.X + cp.Y
		if k < noseKey || (k == noseKey && cp.X < orient.Canon(anchor, nose).X) {
			noseKey, nose = k, p
		}
		if k > tipKey || (k == tipKey && cp.X > orient.Canon(anchor, tip).X) {
			tipKey, tip = k, p
		}
	}

	init := orient.Behind(orient.Behind(nose, grid.AxisX), grid.AxisY)
	opp := orient.Ahead(orient.Ahead(tip, grid.AxisX), grid.AxisY)
	res := Corners2D{Initialization: init, Opposite: opp}
	res.Found = m.InBounds(init) && s.isSafe(init) && m.InBounds(opp) && s.isSafe(opp)
	return res
}

// PerimeterRing returns the closed ring of safe edge nodes around a 2-D
// component, ordered as a walk (each consecutive pair is a mesh link or a
// diagonal step across a concave corner is bridged through its shared safe
// node). The identification messages of Algorithm 2 traverse this ring in the
// two directions. The ring is returned starting at `start` if start is an
// edge node; otherwise at the lexicographically smallest edge node.
//
// For components touching the mesh border the "ring" may be an open chain;
// the returned slice is then the chain from one border contact to the other.
func (s *ComponentSet) PerimeterRing(c *Component, start grid.Point) []grid.Point {
	edges := s.EdgeNodes(c)
	if len(edges) == 0 {
		return nil
	}
	m := s.Mesh
	edgeSet := nodeset.FromPoints(m, edges)
	if !edgeSet.Has(m.ID(start)) {
		start = edges[0]
	}

	// Adjacency between edge nodes: two edge nodes are consecutive on the
	// perimeter if they are mesh neighbours, or diagonal neighbours that share
	// an adjacent member of c (a convex corner of the region).
	adjacent := func(a, b grid.Point) bool {
		d := grid.Manhattan(a, b)
		if d == 1 {
			return true
		}
		if d == 2 && a.X != b.X && a.Y != b.Y && a.Z == b.Z {
			// Diagonal in the XY plane: bridged if one of the two shared
			// orthogonal neighbours is a member of c.
			p1 := grid.Point{X: a.X, Y: b.Y, Z: a.Z}
			p2 := grid.Point{X: b.X, Y: a.Y, Z: a.Z}
			return c.Has(p1) || c.Has(p2)
		}
		return false
	}

	// Greedy walk: depth-first traversal preferring unvisited neighbours,
	// producing a perimeter ordering. MCC perimeters are simple cycles (or
	// chains at the border), so the walk is well defined.
	visited := nodeset.New(m.NodeCount())
	visited.Add(m.ID(start))
	order := []grid.Point{start}
	cur := start
	for {
		var next grid.Point
		found := false
		for _, e := range edges {
			if visited.Has(m.ID(e)) || !adjacent(cur, e) {
				continue
			}
			next, found = e, true
			break
		}
		if !found {
			break
		}
		visited.Add(m.ID(next))
		order = append(order, next)
		cur = next
	}
	// If some edge nodes were not reached (disconnected perimeter pieces at
	// the border), append them in index order so callers still see every edge
	// node exactly once.
	if len(order) < len(edges) {
		for _, e := range edges {
			if !visited.Has(m.ID(e)) {
				order = append(order, e)
				visited.Add(m.ID(e))
			}
		}
	}
	return order
}
