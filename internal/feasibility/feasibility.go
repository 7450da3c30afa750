// Package feasibility implements the paper's sufficient and necessary
// conditions for the existence of a minimal path in the presence of MCCs:
//
//   - Theorem 1 (2-D) and Theorem 2 (3-D), evaluated geometrically through the
//     union of the fault regions (package region), and
//   - the operational detection procedures run by the source node: the two
//     detection-message walkers of Algorithm 3 step 1 in 2-D and the three
//     RMP-surface sweeps of Algorithm 6 step 1 in 3-D.
//
// Each detection message's move rule exists once, as Walker.Step and
// Sweep.Step. Detect2D and Detect3D drive them as a centralised loop and
// flood; package protocol drives the same steps hop by hop as real messages.
// Theorem is the geometric reference and GroundTruth the monotone-path
// existence of package minimal; the test suite cross-checks all of them.
package feasibility

import (
	"mccmesh/internal/grid"
	"mccmesh/internal/labeling"
	"mccmesh/internal/minimal"
	"mccmesh/internal/region"
)

// Result is the outcome of a feasibility check, with enough detail for the
// figures and for debugging disagreements between methods.
type Result struct {
	// Feasible reports whether a minimal path from the source to the
	// destination exists.
	Feasible bool
	// Traces holds, per detection message (2 in 2-D, 3 in 3-D), the nodes the
	// message visited. Empty for the geometric checks.
	Traces [][]grid.Point
	// Hops is the total number of hops taken by all detection messages.
	Hops int
}

// GroundTruth reports whether a minimal path from s to d avoiding all faulty
// nodes exists. By the MCC "ultimate fault region" property this coincides
// with the MCC-model feasibility whenever s and d are safe.
func GroundTruth(cs *region.ComponentSet, s, d grid.Point) bool {
	return minimal.Exists(cs.Mesh, cs.Mesh.FaultyWords(), s, d)
}

// Theorem evaluates the paper's sufficient and necessary condition
// (Theorem 1 in 2-D, Theorem 2 in 3-D) geometrically: a minimal path exists
// exactly when the union of the fault regions — the information carried by the
// merged boundary records — leaves some monotone s→d path open. (Boundary
// construction merges the forbidden regions of MCCs whose boundaries touch,
// which is why the union, not any single MCC, is the right obstacle set.)
func Theorem(cs *region.ComponentSet, s, d grid.Point) bool {
	return !cs.BlockedByUnion(s, d)
}

// SingleMCCExplains reports whether a single MCC alone accounts for the
// infeasibility of the pair (used by the E5 analysis: how often the merged
// information is actually needed).
func SingleMCCExplains(cs *region.ComponentSet, s, d grid.Point) bool {
	return cs.BlockedByAny(s, d)
}

// Walker is one detection message of Algorithm 3 step 1: it advances along
// the forward Prefer axis and detours along the forward Detour axis around
// unsafe nodes.
type Walker struct{ Prefer, Detour grid.Axis }

// Walkers2D are the two detection messages of Algorithm 3 step 1. The first
// prefers the forward Y direction, turns forward X around MCCs and must reach
// the segment [0:xd, yd:yd]; the second prefers forward X and must reach
// [xd:xd, 0:yd]. Both must succeed for the routing to be feasible.
var Walkers2D = [2]Walker{
	{Prefer: grid.AxisY, Detour: grid.AxisX},
	{Prefer: grid.AxisX, Detour: grid.AxisY},
}

// Step is one hop of the walker from s toward d, taken at cur. done reports
// that the walker reached its verdict ok at cur; otherwise it moves on to
// next. The walker succeeds when its preferred coordinate reaches the
// destination's. It steps forward along Prefer when that neighbour is safe,
// else forward along Detour, and fails when the detour would overshoot the
// destination's coordinate or lands on an unsafe node (impossible when s is
// safe, by the safe-frontier lemma; treated as failure for robustness).
// Every step moves forward inside the s–d box, so a walk ends within
// D(s,d) hops.
func (w Walker) Step(l *labeling.Labeling, s, d, cur grid.Point) (next grid.Point, done, ok bool) {
	orient := grid.OrientationOf(s, d)
	cc, dc := orient.Canon(s, cur), orient.Canon(s, d)
	if cc.Axis(w.Prefer) >= dc.Axis(w.Prefer) {
		return cur, true, true
	}
	if next := orient.Ahead(cur, w.Prefer); l.Safe(next) {
		return next, false, false
	}
	if cc.Axis(w.Detour) >= dc.Axis(w.Detour) {
		return cur, true, false // would leave the region of minimal paths
	}
	if side := orient.Ahead(cur, w.Detour); l.Safe(side) {
		return side, false, false
	}
	return cur, true, false
}

// Detect2D runs the Walkers2D over a 2-D labelling as a loop of Walker.Step.
func Detect2D(l *labeling.Labeling, s, d grid.Point) Result {
	res := Result{Feasible: true}
	for _, w := range Walkers2D {
		trace := []grid.Point{s}
		cur := s
		for {
			next, done, ok := w.Step(l, s, d, cur)
			if done {
				res.Feasible = res.Feasible && ok
				break
			}
			cur = next
			trace = append(trace, cur)
		}
		res.Traces = append(res.Traces, trace)
		res.Hops += len(trace) - 1
	}
	return res
}

// Sweep is one RMP-surface sweep of Algorithm 6 step 1: it floods the two
// forward Spread axes, takes a forward Detour step (the paper's "+X turn")
// where a spread move is blocked by an unsafe node, and must reach the face
// of the region of minimal paths whose Target coordinate equals the
// destination's.
type Sweep struct {
	Spread         [2]grid.Axis
	Detour, Target grid.Axis
}

// Sweeps3D are the three sweeps of Algorithm 6: the (−X)-surface propagates
// +Y/+Z with +X detours and must reach the y = yd face; (−Y) propagates +X/+Z
// with +Y detours toward z = zd; (−Z) propagates +X/+Y with +Z detours toward
// x = xd. All three must succeed.
var Sweeps3D = [3]Sweep{
	{Spread: [2]grid.Axis{grid.AxisY, grid.AxisZ}, Detour: grid.AxisX, Target: grid.AxisY},
	{Spread: [2]grid.Axis{grid.AxisX, grid.AxisZ}, Detour: grid.AxisY, Target: grid.AxisZ},
	{Spread: [2]grid.Axis{grid.AxisX, grid.AxisY}, Detour: grid.AxisZ, Target: grid.AxisX},
}

// Step is the sweep's rule at node u of the flood from s toward d. reached
// reports that u lies on the target face. Otherwise Step appends to next the
// safe neighbours the sweep forwards to and returns it: the forward spread
// neighbours first, then the forward detour neighbour when a spread move is
// blocked by an unsafe node. Only moves that stay inside the s–d box are
// taken. The caller dedupes visits.
func (sw Sweep) Step(l *labeling.Labeling, s, d, u grid.Point, next []grid.Point) (reached bool, _ []grid.Point) {
	orient := grid.OrientationOf(s, d)
	uc, dc := orient.Canon(s, u), orient.Canon(s, d)
	if uc.Axis(sw.Target) >= dc.Axis(sw.Target) {
		return true, next
	}
	blocked := false
	for _, a := range sw.Spread {
		if uc.Axis(a) >= dc.Axis(a) {
			continue
		}
		if v := orient.Ahead(u, a); l.Safe(v) {
			next = append(next, v)
		} else {
			blocked = true
		}
	}
	if blocked && uc.Axis(sw.Detour) < dc.Axis(sw.Detour) {
		if v := orient.Ahead(u, sw.Detour); l.Safe(v) {
			next = append(next, v)
		}
	}
	return false, next
}

// Detect3D runs the Sweeps3D over a 3-D labelling, each as a breadth-first
// flood of Sweep.Step that visits a node once and stops at the first node on
// the target face. Traces hold each sweep's visiting order; Hops counts the
// nodes each flood reached beyond s. Unlike Detect2D, the result can disagree
// with GroundTruth for safe endpoints, both ways: the labelling is per
// orientation, not per pair, so a node whose only open forward neighbour lies
// beyond the s–d box still reads safe, and in a box that is flat along an
// axis one sweep's target face holds from the start.
func Detect3D(l *labeling.Labeling, s, d grid.Point) Result {
	res := Result{Feasible: true}
	var next []grid.Point
	for _, sw := range Sweeps3D {
		visited := map[grid.Point]bool{s: true}
		queue := []grid.Point{s}
		var order []grid.Point
		reached := false
		for len(queue) > 0 && !reached {
			u := queue[0]
			queue = queue[1:]
			order = append(order, u)
			reached, next = sw.Step(l, s, d, u, next[:0])
			for _, v := range next {
				if !visited[v] {
					visited[v] = true
					res.Hops++
					queue = append(queue, v)
				}
			}
		}
		res.Traces = append(res.Traces, order)
		res.Feasible = res.Feasible && reached
	}
	return res
}
