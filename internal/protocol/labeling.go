// Package protocol runs the paper's distributed information model on top of
// the simnet discrete-event simulator:
//
//   - the distributed labelling procedure (Algorithms 1 and 4), where every
//     node knows only its own health and its neighbours' liveness and learns
//     promotions through neighbour messages;
//   - the source feasibility-check detection messages (Algorithm 3 step 1 and
//     Algorithm 6 step 1);
//   - the MCC identification process (Algorithm 2 step 2) with its two
//     counter-rotating messages along the region perimeter;
//   - boundary construction (Algorithm 2 step 3 / Algorithm 5 step 4), which
//     deposits MCC records along boundary lines and merges forbidden regions
//     when boundaries meet other MCCs; and
//   - hop-by-hop routing with the records a message collects on its way.
//
// The package schedules rules; it owns none of its own. The labelling
// handler applies labeling.Rule, the detection handler steps
// feasibility.Walker and feasibility.Sweep, and the routing handler decides a
// hop with routing.RecordsMask — the same functions the centralised drivers
// call. What stays here is the scheduling: message payloads, per-node state
// and message and hop counting. Every protocol reports the number of messages
// it exchanged, feeding the message-overhead experiment (E4), and the tests
// check each protocol against its centralised driver.
package protocol

import (
	"mccmesh/internal/grid"
	"mccmesh/internal/labeling"
	"mccmesh/internal/mesh"
	"mccmesh/internal/simnet"
)

// Message kinds used for statistics.
const (
	KindLabel       = "label"
	KindDetect      = "detect"
	KindDetectReply = "detect-reply"
	KindIdentify    = "identify"
	KindBoundary    = "boundary"
	KindRoute       = "route"
)

// labelState is the per-node state of the distributed labelling protocol: the
// node's own status and the last status each neighbour announced, indexed by
// direction (BorderPolicy.Outside for a position beyond the mesh).
type labelState struct {
	status   labeling.Status
	neighbor [6]labeling.Status
}

// labelMsg announces a node's (new) status to a neighbour.
type labelMsg struct {
	Status labeling.Status
}

// labelHandler runs the distributed labelling protocol.
type labelHandler struct {
	orient grid.Orientation
	border labeling.BorderPolicy
}

const labelStateKey = "label"

func (h *labelHandler) state(ctx *simnet.Context) *labelState {
	st, ok := ctx.Store()[labelStateKey].(*labelState)
	if !ok {
		st = &labelState{status: labeling.Safe}
		ctx.Store()[labelStateKey] = st
	}
	return st
}

// Init implements simnet.Handler: every healthy node learns its neighbours'
// liveness (local knowledge), evaluates the labelling rule once and announces
// a promotion if it fires immediately (e.g. a node wedged between faults).
func (h *labelHandler) Init(ctx *simnet.Context) {
	st := h.state(ctx)
	m := ctx.Mesh()
	for _, dir := range m.Directions() {
		switch {
		case m.NeighborID(ctx.SelfID(), dir) == mesh.NoNeighbor:
			st.neighbor[dir] = h.border.Outside()
		case ctx.NeighborFaulty(dir):
			st.neighbor[dir] = labeling.Faulty
		}
	}
	h.evaluate(ctx, st)
}

// Receive implements simnet.Handler.
func (h *labelHandler) Receive(ctx *simnet.Context, env *simnet.Envelope) {
	msg, ok := env.Payload.(labelMsg)
	if !ok {
		return
	}
	st := h.state(ctx)
	m := ctx.Mesh()
	for _, dir := range m.Directions() {
		if m.NeighborID(ctx.SelfID(), dir) == env.FromID {
			st.neighbor[dir] = msg.Status
		}
	}
	h.evaluate(ctx, st)
}

// evaluate applies labeling.Rule to the neighbour statuses the node has
// heard and broadcasts a promotion to the neighbours.
func (h *labelHandler) evaluate(ctx *simnet.Context, st *labelState) {
	if st.status != labeling.Safe {
		return
	}
	axes := ctx.Mesh().Axes()
	var fwd, bwd [3]labeling.Status
	for i, a := range axes {
		fwd[i] = st.neighbor[h.orient.Forward(a)]
		bwd[i] = st.neighbor[h.orient.Backward(a)]
	}
	if s := labeling.Rule(fwd[:len(axes)], bwd[:len(axes)]); s != labeling.Safe {
		st.status = s
		ctx.Broadcast(KindLabel, labelMsg{Status: s})
	}
}

// LabelingResult is the outcome of the distributed labelling protocol.
type LabelingResult struct {
	// Statuses maps dense node index to the status the node itself concluded.
	Statuses []labeling.Status
	// Stats is the simulator's message accounting.
	Stats simnet.Stats
}

// Status returns the status node p concluded for itself.
func (r *LabelingResult) Status(m *mesh.Mesh, p grid.Point) labeling.Status {
	return r.Statuses[m.Index(p)]
}

// RunLabeling executes the distributed labelling protocol for one orientation
// and returns the per-node conclusions plus the message statistics.
func RunLabeling(m *mesh.Mesh, orient grid.Orientation, opts ...labeling.Options) *LabelingResult {
	border := labeling.BorderSafe
	if len(opts) > 0 {
		border = opts[0].Border
	}
	h := &labelHandler{orient: orient, border: border}
	net := simnet.New(m, h)
	stats := mustRun(net)

	res := &LabelingResult{
		Statuses: make([]labeling.Status, m.NodeCount()),
		Stats:    stats,
	}
	for i := 0; i < m.NodeCount(); i++ {
		p := m.Point(i)
		if m.FaultyAt(i) {
			res.Statuses[i] = labeling.Faulty
			continue
		}
		st, ok := net.Store(p)[labelStateKey].(*labelState)
		if ok {
			res.Statuses[i] = st.status
		}
	}
	return res
}
