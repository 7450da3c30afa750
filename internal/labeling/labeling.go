// Package labeling implements the node labelling procedures at the heart of
// the MCC fault-information model: Algorithm 1 of the paper for 2-D meshes and
// Algorithm 4 for 3-D meshes.
//
// Given a mesh with faulty nodes and an orientation (the signs of travel from
// the source toward the destination), every node receives one of four
// statuses:
//
//   - Faulty: the node itself failed.
//   - Useless: a healthy node all of whose forward neighbours (toward the
//     destination, on every active axis) are faulty or useless. Entering it
//     forces a backward move, so it can never appear on a minimal path.
//   - CantReach: a healthy node all of whose backward neighbours are faulty or
//     can't-reach. Entering it requires a backward move in the first place.
//   - Safe: everything else.
//
// Faulty, Useless and CantReach nodes are collectively "unsafe"; their
// connected components are the paper's minimal connected components (MCCs),
// extracted by package region.
package labeling

import (
	"fmt"
	"math/bits"

	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
	"mccmesh/internal/telemetry"
)

// Status is the label of a node under the MCC model.
type Status uint8

// Node statuses, in the order used by the paper's labelling procedure.
const (
	Safe Status = iota
	Faulty
	Useless
	CantReach
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Safe:
		return "safe"
	case Faulty:
		return "faulty"
	case Useless:
		return "useless"
	case CantReach:
		return "cant-reach"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Unsafe reports whether the status marks a node as part of a fault region.
func (s Status) Unsafe() bool { return s != Safe }

// BorderPolicy controls how a missing neighbour (a node outside the mesh) is
// treated by the labelling rules.
type BorderPolicy uint8

const (
	// BorderSafe treats missing neighbours as safe. This is the default and
	// matches the paper's definition: a healthy node is absorbed into a fault
	// region only if using it would *definitely* force a detour, which a mesh
	// border alone never does (the destination cannot lie beyond the border).
	BorderSafe BorderPolicy = iota
	// BorderBlocked treats missing neighbours like faulty nodes, producing a
	// more conservative (larger) fault region. Provided for the E5 ablation.
	BorderBlocked
)

// String implements fmt.Stringer.
func (b BorderPolicy) String() string {
	if b == BorderBlocked {
		return "border-blocked"
	}
	return "border-safe"
}

// Outside is the status the labelling rule reads for a neighbour position
// beyond the mesh border: Safe under BorderSafe, Faulty under BorderBlocked.
func (b BorderPolicy) Outside() Status {
	if b == BorderBlocked {
		return Faulty
	}
	return Safe
}

// Options configure a labelling run.
type Options struct {
	Border BorderPolicy
}

// Labeling is the result of running the labelling procedure over a mesh for a
// fixed orientation. The status array is indexed by dense node ID; the
// worklist fixpoint runs entirely on IDs through the mesh's neighbour IDs
// (Mesh.NeighborID). A Labeling can be updated in place after the fault set
// changes: AddFaults absorbs new faults and RemoveFaults absorbs repairs,
// both relabelling only the affected neighbourhood.
type Labeling struct {
	mesh    *mesh.Mesh
	orient  grid.Orientation
	opts    Options
	status  []Status
	counts  [4]int
	updated int // number of label promotions beyond the initial faulty marking

	queue []int32 // worklist scratch, reused across AddFaults calls

	// unsafeW is the unsafe set as a bitset over dense node IDs, rebuilt
	// lazily by UnsafeWords after any relabelling (wordsStale tracks that).
	unsafeW    []uint64
	wordsStale bool

	// tel receives incremental-relabel set sizes; nil — the default — costs a
	// predicted branch per AddFaults/RemoveFaults call, nothing per node.
	tel *telemetry.Sink
}

// SetTelemetry implements telemetry.Instrumentable.
func (l *Labeling) SetTelemetry(s *telemetry.Sink) { l.tel = s }

// Compute runs the labelling procedure (Algorithm 1 in 2-D, Algorithm 4 in
// 3-D) to its fixpoint and returns the resulting labelling.
func Compute(m *mesh.Mesh, orient grid.Orientation, opts ...Options) *Labeling {
	if !orient.Valid() {
		panic(fmt.Sprintf("labeling: invalid orientation %+v", orient))
	}
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	l := &Labeling{
		mesh:   m,
		orient: orient,
		opts:   o,
		status: make([]Status, m.NodeCount()),
	}
	l.run()
	return l
}

func (l *Labeling) run() {
	m := l.mesh
	l.wordsStale = true
	// Step 1: label all faulty nodes faulty, everything else safe.
	l.counts = [4]int{}
	for i := 0; i < m.NodeCount(); i++ {
		if m.FaultyAt(i) {
			l.status[i] = Faulty
			l.counts[Faulty]++
		} else {
			l.status[i] = Safe
			l.counts[Safe]++
		}
	}

	// Seed. A promotion re-queues the promoted node's neighbours, and the
	// LIFO queue examines them before it returns to the seeds, so a seed's
	// own examination can fire only on blocks no promotion makes: a faulty
	// neighbour, or a missing one under BorderBlocked. Only those nodes are
	// seeded. Seeding every node as well adds only examinations that promote
	// nothing, so the promotions and their order are the same as with a seed
	// of every node (TestSeedMatchesEveryNodeSeed). The queue pops LIFO, so
	// the highest ID goes first.
	if cap(l.queue) < m.NodeCount() {
		l.queue = make([]int32, 0, m.NodeCount())
	}
	near := make([]uint64, (m.NodeCount()+63)/64)
	set := func(id int32) { near[id>>6] |= 1 << uint(id&63) }
	for w, word := range m.FaultyWords() {
		for ; word != 0; word &= word - 1 {
			f := int32(w<<6 | bits.TrailingZeros64(word))
			for _, d := range m.Directions() {
				if q := m.NeighborID(f, d); q != mesh.NoNeighbor {
					set(q)
				}
			}
		}
	}
	if l.opts.Border == BorderBlocked {
		for id := int32(0); id < int32(m.NodeCount()); id++ {
			for _, d := range m.Directions() {
				if m.NeighborID(id, d) == mesh.NoNeighbor {
					set(id)
					break
				}
			}
		}
	}
	queue := l.queue[:0]
	for w, word := range near {
		for ; word != 0; word &= word - 1 {
			if id := int32(w<<6 | bits.TrailingZeros64(word)); l.status[id] == Safe {
				queue = append(queue, id)
			}
		}
	}
	l.fixpoint(queue)
}

// fixpoint drains an ID worklist: whenever a node's label is promoted, its
// neighbours may now satisfy the Useless (resp. CantReach) rule, so only those
// need re-examination. Labels only move away from Safe, so each node is
// promoted at most once; the queue scratch is retained on l for reuse.
func (l *Labeling) fixpoint(queue []int32) {
	m := l.mesh
	axes := m.Axes()
	dirs := m.Directions()
	outside := l.opts.Border.Outside()
	var fwdDir, bwdDir [3]grid.Direction
	for i, a := range axes {
		fwdDir[i], bwdDir[i] = l.orient.Forward(a), l.orient.Backward(a)
	}
	statusAt := func(q int32) Status {
		if q == mesh.NoNeighbor {
			return outside
		}
		return l.status[q]
	}

	var fwd, bwd [3]Status
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if l.status[id] != Safe {
			continue
		}
		for i := range axes {
			fwd[i] = statusAt(m.NeighborID(id, fwdDir[i]))
			bwd[i] = statusAt(m.NeighborID(id, bwdDir[i]))
		}
		s := Rule(fwd[:len(axes)], bwd[:len(axes)])
		if s == Safe {
			continue
		}
		l.promote(id, s)
		for _, d := range dirs {
			if q := m.NeighborID(id, d); q != mesh.NoNeighbor {
				queue = append(queue, q)
			}
		}
	}
	l.queue = queue[:0]
}

// Rule is the labelling rule of Algorithms 1 and 4 for one healthy node, as a
// pure function of its neighbours' statuses: fwd and bwd hold, per active
// axis, the status of the node's forward and backward neighbour (a position
// beyond the mesh border reads as BorderPolicy.Outside). The node is Useless
// when every forward neighbour is faulty or useless, else CantReach when every
// backward neighbour is faulty or can't-reach, else Safe. Useless is checked
// first, so a node both rules fire for is labelled Useless. The centralised
// fixpoint and the distributed labelling protocol both call it.
func Rule(fwd, bwd []Status) Status {
	switch {
	case allBlocked(fwd, Useless):
		return Useless
	case allBlocked(bwd, CantReach):
		return CantReach
	}
	return Safe
}

// allBlocked reports whether every status in nbrs is Faulty or s.
func allBlocked(nbrs []Status, s Status) bool {
	for _, n := range nbrs {
		if n != Faulty && n != s {
			return false
		}
	}
	return true
}

// promote moves a Safe node to an unsafe label, maintaining the counts.
func (l *Labeling) promote(id int32, s Status) {
	l.status[id] = s
	l.counts[Safe]--
	l.counts[s]++
	l.updated++
}

// AddFaults updates the labelling in place after the listed nodes turned
// faulty, relabelling only the affected neighbourhood: the new faults switch
// to Faulty and the worklist fixpoint reruns seeded from their neighbours,
// instead of recomputing the whole mesh. Adding faults can only promote
// labels (a node's forward/backward neighbours only become more blocked), so
// the incremental pass reaches the same fixpoint invariants as a full
// recompute: every labelled node satisfies its rule, every Safe node fails
// both — and with them the same unsafe set, faulty set and absorbed-healthy
// count (TestAddFaultsMatchesFullRecompute pins this on randomized fault
// sequences). The one seam order can show through is the useless vs
// can't-reach *split* of a node whose rules both fire: the label records
// which rule was checked first, and routing only ever consumes "unsafe". The
// mesh must already carry the new faults (mesh.SetFaulty first — the fault
// injectors do this); out-of-bounds points are ignored.
func (l *Labeling) AddFaults(pts []grid.Point) {
	m := l.mesh
	l.wordsStale = true
	queue := l.queue[:0]
	for _, p := range pts {
		id := m.ID(p)
		if id == mesh.NoNeighbor || l.status[id] == Faulty {
			continue
		}
		l.counts[l.status[id]]--
		l.counts[Faulty]++
		l.status[id] = Faulty
		// Every neighbour of a new fault may now satisfy a promotion rule —
		// including neighbours of previously useless/can't-reach nodes that
		// the fault just upgraded to Faulty.
		for _, d := range m.Directions() {
			if q := m.NeighborID(id, d); q != mesh.NoNeighbor {
				queue = append(queue, q)
			}
		}
	}
	u0 := l.updated
	l.fixpoint(queue)
	l.tel.Add(telemetry.RelabelAddNodes, int64(l.updated-u0))
}

// RemoveFaults updates the labelling in place after the listed nodes were
// repaired, un-relabelling only the affected neighbourhood. Repairing a fault
// can only *demote* labels (forward/backward neighbours only become less
// blocked), but demotions cascade the opposite way promotions do, so the
// incremental pass runs in two sweeps:
//
//  1. The repaired nodes flip back to Safe, and every useless / can't-reach
//     node reachable from them through chains of non-faulty unsafe nodes is
//     demoted to Safe as well. A label depends only on the labels of direct
//     mesh neighbours and the only Faulty→Safe flips are the repaired points
//     themselves, so any label the repair could invalidate lies inside this
//     link-connected neighbourhood — nothing outside it can change.
//  2. The standard worklist fixpoint reruns seeded with exactly the demoted
//     nodes, re-promoting the ones whose rules still fire (their labels may
//     have depended on faults that remain).
//
// The result satisfies the same fixpoint invariants as a full recompute over
// the reduced fault set — same unsafe set, faulty set and absorbed-healthy
// count (TestRemoveFaultsMatchesFullRecompute pins this on randomized
// add/remove interleavings) — with the same caveat as AddFaults: the useless
// vs can't-reach split of a dual-eligible node is worklist-order dependent,
// and routing only ever consumes "unsafe". The mesh must already carry the
// repairs (mesh.RemoveFaults first — the churn timeline does this);
// out-of-bounds points and points not labelled Faulty are ignored.
func (l *Labeling) RemoveFaults(pts []grid.Point) {
	m := l.mesh
	l.wordsStale = true
	dirs := m.Directions()
	queue := l.queue[:0]
	for _, p := range pts {
		id := m.ID(p)
		if id == mesh.NoNeighbor || l.status[id] != Faulty {
			continue
		}
		l.counts[Faulty]--
		l.counts[Safe]++
		l.status[id] = Safe
		queue = append(queue, id)
	}
	// Demotion wavefront: walk the link-connected non-faulty unsafe
	// neighbourhood of the repaired nodes, resetting it to Safe. The queue
	// doubles as the BFS frontier and the fixpoint seed — every demoted node
	// must be re-examined, and the fixpoint skips nothing that is Safe.
	for i := 0; i < len(queue); i++ {
		id := queue[i]
		for _, d := range dirs {
			q := m.NeighborID(id, d)
			if q == mesh.NoNeighbor {
				continue
			}
			if s := l.status[q]; s == Useless || s == CantReach {
				l.counts[s]--
				l.counts[Safe]++
				l.status[q] = Safe
				queue = append(queue, q)
			}
		}
	}
	l.tel.Add(telemetry.RelabelRemoveNodes, int64(len(queue)))
	l.fixpoint(queue)
}

// Mesh returns the mesh the labelling was computed over.
func (l *Labeling) Mesh() *mesh.Mesh { return l.mesh }

// Orientation returns the orientation the labelling was computed for.
func (l *Labeling) Orientation() grid.Orientation { return l.orient }

// Options returns the options used to compute the labelling.
func (l *Labeling) Options() Options { return l.opts }

// Status returns the label of p. Out-of-bounds points are reported Safe,
// consistent with the BorderSafe policy; callers that need strict bounds
// checking should consult the mesh first.
func (l *Labeling) Status(p grid.Point) Status {
	if !l.mesh.InBounds(p) {
		return Safe
	}
	return l.status[l.mesh.Index(p)]
}

// StatusAt returns the label by dense node index.
func (l *Labeling) StatusAt(idx int) Status { return l.status[idx] }

// UnsafeAt reports whether the node with dense index idx is faulty, useless
// or can't-reach — the per-hop fast path of the routing providers.
func (l *Labeling) UnsafeAt(idx int) bool { return l.status[idx] != Safe }

// UnsafeWords returns the unsafe set as a bitset over dense node IDs (bit set
// = unsafe), the obstacle form the reachability sweep consumes
// (minimal.ReachabilityWordsInto). The bitset is rebuilt lazily after a
// relabelling and must not be mutated or retained across
// AddFaults/RemoveFaults by the caller.
func (l *Labeling) UnsafeWords() []uint64 {
	if l.unsafeW != nil && !l.wordsStale {
		return l.unsafeW
	}
	n := (len(l.status) + 63) / 64
	if cap(l.unsafeW) < n {
		l.unsafeW = make([]uint64, n)
	} else {
		l.unsafeW = l.unsafeW[:n]
		for i := range l.unsafeW {
			l.unsafeW[i] = 0
		}
	}
	for i, s := range l.status {
		if s != Safe {
			l.unsafeW[i>>6] |= 1 << uint(i&63)
		}
	}
	l.wordsStale = false
	return l.unsafeW
}

// Unsafe reports whether p is faulty, useless or can't-reach.
func (l *Labeling) Unsafe(p grid.Point) bool {
	if !l.mesh.InBounds(p) {
		return false
	}
	return l.status[l.mesh.Index(p)].Unsafe()
}

// Safe reports whether p is in bounds and labelled safe.
func (l *Labeling) Safe(p grid.Point) bool {
	return l.mesh.InBounds(p) && l.status[l.mesh.Index(p)] == Safe
}

// Count returns the number of nodes carrying the given status.
func (l *Labeling) Count(s Status) int { return l.counts[s] }

// UnsafeCount returns the total number of unsafe nodes.
func (l *Labeling) UnsafeCount() int {
	return l.counts[Faulty] + l.counts[Useless] + l.counts[CantReach]
}

// NonFaultyUnsafeCount returns the number of healthy nodes absorbed into fault
// regions (the paper's first evaluation metric).
func (l *Labeling) NonFaultyUnsafeCount() int {
	return l.counts[Useless] + l.counts[CantReach]
}

// UnsafeNodes returns the coordinates of every unsafe node in index order.
func (l *Labeling) UnsafeNodes() []grid.Point {
	out := make([]grid.Point, 0, l.UnsafeCount())
	for i, s := range l.status {
		if s.Unsafe() {
			out = append(out, l.mesh.Point(i))
		}
	}
	return out
}

// Promotions returns how many healthy nodes were promoted to useless or
// can't-reach (diagnostic, used by the message-overhead experiment to bound
// the work a distributed implementation must do).
func (l *Labeling) Promotions() int { return l.updated }

// ComputeAll returns the labelling for every orientation of the mesh (four in
// 2-D, eight in 3-D), indexed by Orientation.Index.
func ComputeAll(m *mesh.Mesh, opts ...Options) []*Labeling {
	var orients []grid.Orientation
	if m.Is2D() {
		orients = grid.AllOrientations2D()
	} else {
		orients = grid.AllOrientations3D()
	}
	out := make([]*Labeling, 8)
	for _, o := range orients {
		out[o.Index()] = Compute(m, o, opts...)
	}
	return out
}
