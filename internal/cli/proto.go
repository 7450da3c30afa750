package cli

import (
	"flag"
	"fmt"

	"mccmesh/internal/grid"
	"mccmesh/internal/labeling"
	"mccmesh/internal/protocol"
	"mccmesh/internal/region"
)

// cmdProto runs the distributed protocols of the information model over the
// discrete-event simulator and reports their message costs (the old
// mccproto): the labelling exchange, the identification and boundary
// construction, the feasibility detection and the hop-by-hop routing.
func cmdProto(args []string) int {
	fs := flag.NewFlagSet("mcc proto", flag.ContinueOnError)
	fs.SetOutput(stderr)
	setup := addSetupFlags(fs, "10x10x10", 40)
	pairs := fs.Int("pairs", 3, "number of routing requests to simulate")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc, err := setup.scenario("pairs")
	if err != nil {
		return fail("proto", err)
	}
	if *setup.dump {
		return dumpSpec(sc)
	}
	m, r := materialize(sc)
	orient := grid.PositiveOrientation

	lr := protocol.RunLabeling(m, orient)
	fmt.Fprintf(stdout, "distributed labelling : %d label messages, settled at t=%d\n",
		lr.Stats.ByKind[protocol.KindLabel], lr.Stats.FinalTime)

	lab := labeling.Compute(m, orient)
	cs := region.FindMCCs(lab)
	info := protocol.RunInformationModel(m, lab, cs)
	fmt.Fprintf(stdout, "information model     : %d MCCs, %d identify messages, %d boundary messages, records on %d nodes\n",
		cs.Len(), info.IdentifyMessages, info.BoundaryMessages, len(info.Records))

	routed := 0
	for routed < *pairs {
		s := m.Point(r.Intn(m.NodeCount()))
		d := m.Point(r.Intn(m.NodeCount()))
		if grid.Manhattan(s, d) < m.Dims().X || m.IsFaulty(s) || m.IsFaulty(d) {
			continue
		}
		pairLab := labeling.Compute(m, grid.OrientationOf(s, d))
		if pairLab.Unsafe(s) || pairLab.Unsafe(d) {
			continue
		}
		routed++
		var det *protocol.DetectionResult
		if m.Is2D() {
			det = protocol.RunDetection2D(m, pairLab, s, d)
		} else {
			det = protocol.RunDetection3D(m, pairLab, s, d)
		}
		fmt.Fprintf(stdout, "pair %d %v -> %v: detection feasible=%v (%d forward + %d reply hops)\n",
			routed, s, d, det.Feasible, det.ForwardHops, det.ReplyHops)
		if !det.Feasible {
			continue
		}
		pairCS := region.FindMCCs(pairLab)
		pairInfo := protocol.RunInformationModel(m, pairLab, pairCS)
		res := protocol.RunRouting(m, pairCS, pairInfo.Records, s, d)
		fmt.Fprintf(stdout, "        routing: delivered=%v minimal=%v in %d hops\n", res.Delivered, res.Minimal, res.Hops)
	}
	return 0
}
