// distributed shows the information model as pure message passing on the
// discrete-event simulator: distributed labelling, identification and
// boundary construction, feasibility detection and hop-by-hop routing, with
// the message counts the overhead experiment (E4) aggregates.
package main

import (
	"fmt"
	"io"
	"os"

	"mccmesh"
	"mccmesh/internal/grid"
	"mccmesh/internal/labeling"
	"mccmesh/internal/protocol"
	"mccmesh/internal/region"
)

func main() { run(os.Stdout) }

func run(w io.Writer) {
	m := mccmesh.NewCube(9)
	r := mccmesh.NewRand(7)
	s, d := mccmesh.At(0, 0, 0), mccmesh.At(8, 8, 8)
	mccmesh.InjectClustered(m, r, 4, 6, s, d)
	fmt.Fprintf(w, "mesh %v with %d clustered faults\n\n", m.Dims(), m.FaultCount())

	orient := grid.OrientationOf(s, d)

	// 1. Distributed labelling: each node learns only from its neighbours.
	lr := protocol.RunLabeling(m, orient)
	fmt.Fprintf(w, "labelling protocol   : %d label messages, quiescent at t=%d\n",
		lr.Stats.ByKind[protocol.KindLabel], lr.Stats.FinalTime)

	// The centralised computation agrees node for node (checked in the tests);
	// we use it below to drive the remaining phases.
	lab := labeling.Compute(m, orient)
	cs := region.FindMCCs(lab)
	fmt.Fprintf(w, "fault regions        : %d MCCs, %d healthy nodes absorbed\n", cs.Len(), cs.TotalNonFaulty())

	// 2. Identification + boundary construction.
	info := protocol.RunInformationModel(m, lab, cs)
	fmt.Fprintf(w, "identification       : %d messages (%d regions completed)\n", info.IdentifyMessages, len(info.Completed))
	fmt.Fprintf(w, "boundary construction: %d messages, records stored on %d nodes\n", info.BoundaryMessages, len(info.Records))

	// 3. Feasibility detection from the source.
	det := protocol.RunDetection3D(m, lab, s, d)
	fmt.Fprintf(w, "detection            : feasible=%v, %d forward + %d reply hops\n", det.Feasible, det.ForwardHops, det.ReplyHops)

	// 4. Hop-by-hop routing with node-local records.
	res := protocol.RunRouting(m, cs, info.Records, s, d)
	fmt.Fprintf(w, "routing              : delivered=%v minimal=%v in %d hops (distance %d)\n",
		res.Delivered, res.Minimal, res.Hops, mccmesh.Distance(s, d))
}
