package protocol

import (
	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
	"mccmesh/internal/region"
	"mccmesh/internal/routing"
	"mccmesh/internal/simnet"
)

// routeMsg is a routing message being forwarded hop by hop
// (Algorithm 3/6 step 2). It carries the destination and the MCC records it
// has learned from the boundary nodes it crossed, mirroring the paper's
// routing messages.
type routeMsg struct {
	Source, Dest grid.Point
	Path         []grid.Point
	Known        []int
}

// routeHandler forwards routing messages using only node-local information:
// the node's own label, its neighbours' liveness and labels, and the MCC
// records stored at the node by the boundary construction. The hop decision
// is routing.RecordsMask over the records the message has collected, with the
// largest-offset pick.
type routeHandler struct {
	cs      *region.ComponentSet
	records map[int][]int

	delivered bool
	path      []grid.Point
	failedAt  *grid.Point
	hops      int
}

func (h *routeHandler) Init(*simnet.Context) {}

func (h *routeHandler) Receive(ctx *simnet.Context, env *simnet.Envelope) {
	msg, ok := env.Payload.(routeMsg)
	if !ok {
		return
	}
	self := ctx.Self()
	msg.Path = append(append([]grid.Point(nil), msg.Path...), self)

	// Pick up the records stored at this node.
	for _, id := range h.records[int(ctx.SelfID())] {
		msg.Known = mergeID(msg.Known, id)
	}

	if self == msg.Dest {
		h.delivered = true
		h.path = msg.Path
		return
	}

	m := ctx.Mesh()
	dirs := routing.AppendMaskDirs(nil, routing.RecordsMask(m, h.cs, msg.Known, ctx.SelfID(), self, m.ID(msg.Dest), msg.Dest))
	if len(dirs) == 0 {
		h.failedAt = &self
		return
	}
	h.hops++
	ctx.SendDir(dirs[routing.LargestOffsetFirst{}.Pick(self, msg.Dest, dirs)], KindRoute, msg)
}

// RouteResult is the outcome of one distributed routing attempt.
type RouteResult struct {
	// Delivered reports whether the message reached the destination.
	Delivered bool
	// Path is the node sequence the message followed (including endpoints)
	// when delivered.
	Path []grid.Point
	// Minimal reports whether the delivered path has length exactly D(s,d).
	Minimal bool
	// Hops counts the routing-message hops taken (successful or not).
	Hops int
	// StuckAt is the node where the routing ran out of candidates, if any.
	StuckAt *grid.Point
	// Stats is the raw simulator accounting.
	Stats simnet.Stats
}

// RunRouting forwards one routing message from s to d over the simulator,
// using cs's labelling and the per-node records produced by
// RunInformationModel (records may be nil, in which case only the labelling
// is available locally).
func RunRouting(m *mesh.Mesh, cs *region.ComponentSet, records map[int][]int, s, d grid.Point) *RouteResult {
	h := &routeHandler{cs: cs, records: records}
	net := simnet.New(m, h)
	net.Post(s, KindRoute, routeMsg{Source: s, Dest: d})
	stats := mustRun(net)
	res := &RouteResult{
		Delivered: h.delivered,
		Path:      h.path,
		Hops:      h.hops,
		StuckAt:   h.failedAt,
		Stats:     stats,
	}
	if h.delivered {
		res.Minimal = len(h.path) == grid.Manhattan(s, d)+1
	}
	return res
}
