package protocol

import (
	"mccmesh/internal/feasibility"
	"mccmesh/internal/grid"
	"mccmesh/internal/labeling"
	"mccmesh/internal/mesh"
	"mccmesh/internal/simnet"
)

// DetectionResult is the outcome of the distributed feasibility check run at
// the source node.
type DetectionResult struct {
	// Feasible is the conclusion the source reaches: true iff every detection
	// message reported that its target face of the RMP is reachable.
	Feasible bool
	// ForwardHops counts detection-message hops; ReplyHops counts the hops of
	// the answers travelling back to the source.
	ForwardHops, ReplyHops int
	// Stats is the raw simulator accounting (includes the labelling exchange
	// when RunFullCheck is used).
	Stats simnet.Stats
}

// detectMsg is a walker-style detection message (2-D, Algorithm 3 step 1).
type detectMsg struct {
	Source, Dest grid.Point
	Walker       feasibility.Walker
	Path         []grid.Point
	ID           int
}

// detectReply carries the walker's verdict back along its recorded path.
type detectReply struct {
	OK   bool
	ID   int
	Path []grid.Point // remaining reverse path
}

// floodMsg is a surface-sweep detection message (3-D, Algorithm 6 step 1).
type floodMsg struct {
	Source, Dest grid.Point
	Sweep        feasibility.Sweep
	Surface      int
}

// detectHandler implements both detection styles by driving the step rules of
// package feasibility one message at a time. Each node needs only its own
// label and its neighbours' labels, which it holds after the labelling
// protocol; here the handler is given the completed labelling to stand in for
// that local knowledge.
type detectHandler struct {
	lab *labeling.Labeling

	// Source-side bookkeeping (only the source node mutates these).
	walkerVerdicts map[int]bool
	surfaceReached map[int]bool
	forwardHops    int
	replyHops      int
}

func (h *detectHandler) Init(*simnet.Context) {}

func (h *detectHandler) Receive(ctx *simnet.Context, env *simnet.Envelope) {
	switch msg := env.Payload.(type) {
	case detectMsg:
		h.stepWalker(ctx, msg)
	case detectReply:
		h.forwardReply(ctx, msg)
	case floodMsg:
		h.stepFlood(ctx, msg)
	}
}

// stepWalker advances the 2-D detection walker by one hop (Walker.Step), or
// starts its reply when it has reached a verdict.
func (h *detectHandler) stepWalker(ctx *simnet.Context, msg detectMsg) {
	self := ctx.Self()
	next, done, ok := msg.Walker.Step(h.lab, msg.Source, msg.Dest, self)
	if !done {
		h.forwardHops++
		msg.Path = append(append([]grid.Point(nil), msg.Path...), self)
		ctx.Send(next, KindDetect, msg)
		return
	}
	if self == msg.Source {
		h.recordWalkerVerdict(msg.ID, ok)
		return
	}
	// Send the verdict back along the recorded path.
	prev := msg.Path[len(msg.Path)-1]
	h.replyHops++
	ctx.Send(prev, KindDetectReply, detectReply{OK: ok, ID: msg.ID, Path: msg.Path[:len(msg.Path)-1]})
}

func (h *detectHandler) forwardReply(ctx *simnet.Context, msg detectReply) {
	if len(msg.Path) == 0 {
		h.recordWalkerVerdict(msg.ID, msg.OK)
		return
	}
	prev := msg.Path[len(msg.Path)-1]
	h.replyHops++
	ctx.Send(prev, KindDetectReply, detectReply{OK: msg.OK, ID: msg.ID, Path: msg.Path[:len(msg.Path)-1]})
}

func (h *detectHandler) recordWalkerVerdict(id int, ok bool) {
	if h.walkerVerdicts == nil {
		h.walkerVerdicts = make(map[int]bool)
	}
	h.walkerVerdicts[id] = ok
}

// stepFlood advances the 3-D surface sweep (Sweep.Step) at this node, the
// first time the sweep reaches it, counting every forwarded copy.
func (h *detectHandler) stepFlood(ctx *simnet.Context, msg floodMsg) {
	key := floodKey(msg.Surface)
	if _, seen := ctx.Store()[key]; seen {
		return
	}
	ctx.Store()[key] = true

	reached, next := msg.Sweep.Step(h.lab, msg.Source, msg.Dest, ctx.Self(), nil)
	if reached {
		h.surfaceReachedMark(msg.Surface)
		return
	}
	for _, v := range next {
		h.forwardHops++
		ctx.Send(v, KindDetect, msg)
	}
}

func (h *detectHandler) surfaceReachedMark(surface int) {
	if h.surfaceReached == nil {
		h.surfaceReached = make(map[int]bool)
	}
	h.surfaceReached[surface] = true
}

func floodKey(surface int) string {
	return "flood-" + string(rune('0'+surface))
}

// RunDetection2D runs the two detection walkers of Algorithm 3 step 1 as real
// messages over the simulator and returns the source's conclusion.
func RunDetection2D(m *mesh.Mesh, lab *labeling.Labeling, s, d grid.Point) *DetectionResult {
	h := &detectHandler{lab: lab}
	net := simnet.New(m, h)
	for id, w := range feasibility.Walkers2D {
		net.Post(s, KindDetect, detectMsg{Source: s, Dest: d, Walker: w, ID: id})
	}
	stats := mustRun(net)

	res := &DetectionResult{Feasible: true, ForwardHops: h.forwardHops, ReplyHops: h.replyHops, Stats: stats}
	for id := range feasibility.Walkers2D {
		if !h.walkerVerdicts[id] {
			res.Feasible = false
		}
	}
	return res
}

// RunDetection3D runs the three RMP-surface sweeps of Algorithm 6 step 1 as a
// message flood and returns the source's conclusion. The reply cost is
// estimated as the Manhattan distance from the first node of each reached
// target face back to the source (the sweep result travels back along the
// swept surface).
func RunDetection3D(m *mesh.Mesh, lab *labeling.Labeling, s, d grid.Point) *DetectionResult {
	h := &detectHandler{lab: lab}
	net := simnet.New(m, h)
	for i, sw := range feasibility.Sweeps3D {
		net.Post(s, KindDetect, floodMsg{Source: s, Dest: d, Sweep: sw, Surface: i})
	}
	stats := mustRun(net)

	res := &DetectionResult{Feasible: true, ForwardHops: h.forwardHops, ReplyHops: h.replyHops, Stats: stats}
	for i := range feasibility.Sweeps3D {
		if !h.surfaceReached[i] {
			res.Feasible = false
			continue
		}
		res.ReplyHops += grid.Manhattan(s, d) // upper bound for the returning answer
	}
	return res
}
