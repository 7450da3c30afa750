// Package routing implements the fully adaptive minimal routing engine of the
// paper (Algorithm 3 step 2 in 2-D, Algorithm 6 step 2 in 3-D) on top of
// pluggable fault-information providers.
//
// At every node the engine asks the information provider one question: which
// preferred (forward) directions remain once the excluded ones are removed —
// in the paper's terms, directions whose neighbour lies in the forbidden
// region of an MCC whose critical region contains the destination. The answer
// is a packed direction mask (Provider.CandidateMaskID); a selection policy
// ("any fully adaptive and minimal routing process") then picks one of the
// remaining candidates.
//
// Providers range from the omniscient oracle, through the per-MCC model
// (the paper's contribution), the rectangular-faulty-block baselines, down to
// a purely local greedy router, so the experiments can compare them on equal
// footing. The oracle, the MCC model and the block baselines are one type,
// FieldProvider: they ask the same reachability question over different
// obstacle sets (the faults, the union of the MCCs, the union of the blocks)
// and answer it from one sparse table of exceptions per destination.
package routing

import (
	"errors"
	"fmt"
	"math/bits"

	"mccmesh/internal/grid"
	"mccmesh/internal/labeling"
	"mccmesh/internal/mesh"
)

// Provider supplies the fault information consulted at each routing step.
// One call answers the whole hop, addressed by dense mesh node IDs.
//
// FieldProvider (the oracle, mcc, rfb and fb-rule models) answers from the
// destination's exceptions, the few free nodes that cannot reach it: once an
// octant that holds the hop is built, a hop reads the destination's head and
// the neighbours' obstacle bits, and the exceptions only for a neighbour on a
// plane through the destination that holds one; a fault change patches the
// exceptions in place.
// The other providers compute the mask on the fly.
type Provider interface {
	// CandidateMaskID returns the packed candidate-direction mask for a hop
	// from u toward d: bit i is set exactly when grid.Direction(i) is a
	// preferred (forward) direction whose neighbour is healthy and not
	// excluded by the provider's fault information. m is the routing mesh
	// (used by stateless providers for the neighbour and fault tables;
	// caching providers consult their own snapshot's mesh). u/uPt and d/dPt
	// name the same nodes in both addressings.
	CandidateMaskID(m *mesh.Mesh, u int32, uPt grid.Point, d int32, dPt grid.Point) uint8
	// Name identifies the provider in tables and traces.
	Name() string
}

// AppendMaskDirs appends the directions set in mask to dst, in direction-enum
// order: at most one direction per axis, axes in X, Y, Z order.
func AppendMaskDirs(dst []grid.Direction, mask uint8) []grid.Direction {
	for mask != 0 {
		d := bits.TrailingZeros8(mask)
		mask &= mask - 1
		dst = append(dst, grid.Direction(d))
	}
	return dst
}

// healthyForwardMask packs the preferred (forward) directions from u toward d
// whose neighbour exists and is healthy — the provider-independent part of a
// hop decision. On the minimal paths the engine routes, the per-axis sign of
// d-u equals the packet orientation's sign wherever the axis is unresolved,
// so the mask needs no orientation input.
func healthyForwardMask(m *mesh.Mesh, u int32, uPt, dPt grid.Point) uint8 {
	var mk uint8
	for _, a := range m.Axes() {
		delta := dPt.Axis(a) - uPt.Axis(a)
		if delta == 0 {
			continue
		}
		dir := grid.DirectionOf(a, grid.Sign(delta))
		if v := m.NeighborID(u, dir); v != mesh.NoNeighbor && !m.FaultyAt(int(v)) {
			mk |= 1 << uint(dir)
		}
	}
	return mk
}

// safeForwardMask is healthyForwardMask minus the neighbours lab marks
// unsafe, the destination excepted so that a route can always terminate. A
// nil labelling excludes nothing.
func safeForwardMask(m *mesh.Mesh, lab *labeling.Labeling, u int32, uPt grid.Point, d int32, dPt grid.Point) uint8 {
	mk := healthyForwardMask(m, u, uPt, dPt)
	if lab == nil {
		return mk
	}
	for rest := mk; rest != 0; rest &= rest - 1 {
		dir := grid.Direction(bits.TrailingZeros8(rest))
		if v := m.NeighborID(u, dir); v != d && lab.UnsafeAt(int(v)) {
			mk &^= 1 << uint(dir)
		}
	}
	return mk
}

// Policy picks one direction among the allowed candidate directions.
type Policy interface {
	// Pick returns the index of the chosen candidate in dirs. dirs is never
	// empty.
	Pick(u, d grid.Point, dirs []grid.Direction) int
	// Name identifies the policy.
	Name() string
}

// Errors returned by Route.
var (
	// ErrNoCandidate is returned when every preferred direction is excluded —
	// the information model could not keep the route minimal.
	ErrNoCandidate = errors.New("routing: no candidate forwarding direction")
	// ErrEndpointFaulty is returned when the source or destination is faulty.
	ErrEndpointFaulty = errors.New("routing: source or destination is faulty")
	// ErrEndpointOutOfMesh is returned when the source or destination lies
	// outside the mesh.
	ErrEndpointOutOfMesh = errors.New("routing: source or destination is outside the mesh")
	// ErrTooManyHops guards against livelock bugs.
	ErrTooManyHops = errors.New("routing: exceeded the minimal hop budget")
)

// Trace records one routing attempt.
type Trace struct {
	// Path is the sequence of visited nodes, starting at the source. On
	// failure it ends at the node where the route got stuck.
	Path []grid.Point
	// Candidates[i] is the number of allowed forwarding directions at hop i;
	// it measures the adaptivity left to the selection policy (experiment E6).
	Candidates []int
	// Err is nil on success.
	Err error
}

// Succeeded reports whether the attempt delivered the message minimally.
func (t *Trace) Succeeded() bool { return t.Err == nil }

// Hops returns the number of hops taken.
func (t *Trace) Hops() int {
	if len(t.Path) == 0 {
		return 0
	}
	return len(t.Path) - 1
}

// MinAdaptivity returns the smallest candidate count observed along the path,
// or 0 if the path is empty.
func (t *Trace) MinAdaptivity() int {
	if len(t.Candidates) == 0 {
		return 0
	}
	m := t.Candidates[0]
	for _, c := range t.Candidates[1:] {
		if c < m {
			m = c
		}
	}
	return m
}

// Router runs minimal adaptive routing over a mesh with a fixed provider and
// policy.
type Router struct {
	Mesh     *mesh.Mesh
	Provider Provider
	Policy   Policy
}

// New returns a Router. A nil policy defaults to LargestOffsetFirst.
func New(m *mesh.Mesh, p Provider, policy Policy) *Router {
	if policy == nil {
		policy = LargestOffsetFirst{}
	}
	return &Router{Mesh: m, Provider: p, Policy: policy}
}

// Route attempts to deliver a message from s to d along a minimal path. Each
// hop is one CandidateMaskID call, expanded into the candidate directions the
// policy picks from.
func (r *Router) Route(s, d grid.Point) *Trace {
	m := r.Mesh
	t := &Trace{Path: []grid.Point{s}}
	if !m.InBounds(s) || !m.InBounds(d) {
		t.Err = ErrEndpointOutOfMesh
		return t
	}
	if m.IsFaulty(s) || m.IsFaulty(d) {
		t.Err = ErrEndpointFaulty
		return t
	}
	dID := m.ID(d)
	cur := s
	budget := grid.Manhattan(s, d)
	var dirs []grid.Direction
	for hop := 0; cur != d; hop++ {
		if hop > budget {
			t.Err = ErrTooManyHops
			return t
		}
		dirs = AppendMaskDirs(dirs[:0], r.Provider.CandidateMaskID(m, m.ID(cur), cur, dID, d))
		t.Candidates = append(t.Candidates, len(dirs))
		if len(dirs) == 0 {
			t.Err = fmt.Errorf("%w at %v toward %v (provider %s)", ErrNoCandidate, cur, d, r.Provider.Name())
			return t
		}
		pick := r.Policy.Pick(cur, d, dirs)
		cur = grid.Step(cur, dirs[pick])
		t.Path = append(t.Path, cur)
	}
	return t
}

// --- Selection policies -----------------------------------------------------

// LargestOffsetFirst picks the candidate direction whose axis has the largest
// remaining offset toward the destination — a common fully adaptive minimal
// selection that balances the remaining freedom.
type LargestOffsetFirst struct{}

// Name implements Policy.
func (LargestOffsetFirst) Name() string { return "largest-offset" }

// Pick implements Policy.
func (LargestOffsetFirst) Pick(u, d grid.Point, dirs []grid.Direction) int {
	best, bestOff := 0, -1
	for i, dir := range dirs {
		a := dir.Axis()
		off := d.Axis(a) - u.Axis(a)
		if off < 0 {
			off = -off
		}
		if off > bestOff {
			best, bestOff = i, off
		}
	}
	return best
}

// DimensionOrder picks candidates in fixed X, Y, Z order (e-cube-like tie
// breaking); useful as a deterministic reference policy.
type DimensionOrder struct{}

// Name implements Policy.
func (DimensionOrder) Name() string { return "dimension-order" }

// Pick implements Policy.
func (DimensionOrder) Pick(_, _ grid.Point, dirs []grid.Direction) int {
	best := 0
	for i, dir := range dirs {
		if dir.Axis() < dirs[best].Axis() {
			best = i
		}
	}
	return best
}

// Seeded is a deterministic pseudo-random policy: it hashes the current node
// and destination to spread traffic across candidates without carrying state.
type Seeded struct {
	Seed uint64
}

// Name implements Policy.
func (Seeded) Name() string { return "seeded" }

// Pick implements Policy.
func (s Seeded) Pick(u, d grid.Point, dirs []grid.Direction) int {
	h := s.Seed ^ 0x9e3779b97f4a7c15
	mix := func(v int) {
		h ^= uint64(uint32(v)) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	}
	mix(u.X)
	mix(u.Y)
	mix(u.Z)
	mix(d.X)
	mix(d.Y)
	mix(d.Z)
	return int(h % uint64(len(dirs)))
}
