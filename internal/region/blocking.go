package region

import (
	"mccmesh/internal/grid"
	"mccmesh/internal/minimal"
)

// Blocked reports whether the single component c, considered alone, blocks
// every minimal (monotone) path from `from` to `to`. This is the exact
// semantics behind the paper's forbidden/critical region rule: a routing
// step into a node v is excluded when the destination lies in the critical
// region of an MCC and v lies in its forbidden region — equivalently, when
// that MCC alone already blocks every monotone v→destination path.
func (s *ComponentSet) Blocked(c *Component, from, to grid.Point) bool {
	if !s.Mesh.InBounds(from) || !s.Mesh.InBounds(to) {
		return true
	}
	if c.Has(from) || c.Has(to) {
		return true
	}
	// Fast reject: a component entirely outside the routing box can never
	// block a monotone path.
	if !c.Bounds.Intersects(grid.BoxOf(from, to)) {
		return false
	}
	return !minimal.Exists(s.Mesh, c.AddWords(nil), from, to)
}

// BlockedByAny reports whether any single component of the set, on its own,
// blocks every monotone path from `from` to `to`.
//
// This is a sufficient condition for infeasibility but not a necessary one:
// two well-separated MCCs can jointly pinch off a narrow routing box that
// neither blocks alone. The paper handles exactly this case by *merging*
// forbidden regions when a boundary intersects another MCC (Algorithm 2 step 3
// and Algorithm 5 step 4); the merged information is equivalent to blocking by
// the union of all regions, which BlockedByUnion computes. BlockedByAny is
// kept as an analysis helper (e.g. to measure how often a single MCC explains
// an infeasible pair).
func (s *ComponentSet) BlockedByAny(from, to grid.Point) bool {
	for _, c := range s.Components {
		if s.Blocked(c, from, to) {
			return true
		}
	}
	return false
}

// BlockedByUnion reports whether the union of all components blocks every
// monotone path from `from` to `to`. This is the information the paper's
// merged boundary records encode, and — by the MCC ultimacy property — it
// coincides with blocking by the faulty nodes alone whenever the endpoints are
// safe.
func (s *ComponentSet) BlockedByUnion(from, to grid.Point) bool {
	return !minimal.Exists(s.Mesh, s.UnionAvoidWords(), from, to)
}

// UnionAvoidWords returns the union of all fault regions as a bitset over
// dense node IDs, the obstacle form the reachability sweep consumes. Labelled
// sets delegate to the labelling's lazily-maintained unsafe bitset; fault-only
// cluster sets derive one from byNode, invalidated by Refresh. The caller must not mutate or retain the
// slice across Refresh.
func (s *ComponentSet) UnionAvoidWords() []uint64 {
	if s.Labeling != nil {
		return s.Labeling.UnsafeWords()
	}
	if s.avoidW == nil {
		w := make([]uint64, (len(s.byNode)+63)/64)
		for i, b := range s.byNode {
			if b >= 0 {
				w[i>>6] |= 1 << uint(i&63)
			}
		}
		s.avoidW = w
	}
	return s.avoidW
}

// InForbidden reports whether node v lies in the forbidden region of component
// c with respect to destination d: moving onto v while the destination is in
// c's critical region dooms the route to a detour around c. The membership is
// destination-relative, exactly as used by Algorithm 3/6 step 2.
func (s *ComponentSet) InForbidden(c *Component, v, d grid.Point) bool {
	if !s.Mesh.InBounds(v) || c.Has(v) {
		return true
	}
	return s.Blocked(c, v, d)
}

// InCritical reports whether destination d lies in the critical region of
// component c as seen from a current node u: c stands between u and d in the
// sense that some monotone u→d path meets c's bounding box and c restricts
// which forward steps keep the route minimal.
func (s *ComponentSet) InCritical(c *Component, u, d grid.Point) bool {
	if c.Has(d) {
		return false
	}
	if !c.Bounds.Intersects(grid.BoxOf(u, d)) {
		return false
	}
	// d is critical w.r.t. c when at least one forward neighbour of u is
	// blocked by c alone while u itself is not (yet) blocked.
	if s.Blocked(c, u, d) {
		return false
	}
	orient := grid.OrientationOf(u, d)
	for _, a := range s.Mesh.Axes() {
		if u.Axis(a) == d.Axis(a) {
			continue
		}
		v := orient.Ahead(u, a)
		if s.Mesh.InBounds(v) && !c.Has(v) && s.Blocked(c, v, d) {
			return true
		}
	}
	return false
}
