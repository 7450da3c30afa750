// routing2d walks through the 2-D machinery of Section 3 of the paper: the
// labelling, the MCC corners, the boundary information and the two detection
// messages of the feasibility check, then routes around the fault regions.
package main

import (
	"fmt"
	"io"
	"os"

	"mccmesh"
	"mccmesh/internal/feasibility"
	"mccmesh/internal/protocol"
	"mccmesh/internal/viz"
)

func main() { run(os.Stdout) }

func run(w io.Writer) {
	m := mccmesh.New2D(14, 14)
	// Two staircase fault clusters reminiscent of Figure 3.
	m.AddFaults(
		mccmesh.At(5, 8, 0), mccmesh.At(6, 8, 0), mccmesh.At(6, 7, 0),
		mccmesh.At(9, 4, 0), mccmesh.At(10, 4, 0), mccmesh.At(10, 3, 0),
	)
	s, d := mccmesh.At(0, 0, 0), mccmesh.At(13, 13, 0)

	model := mccmesh.NewModel(m)
	orient := mccmesh.OrientationOf(s, d)
	l := model.Labeling(orient)
	cs := model.Regions(orient)

	fmt.Fprintf(w, "2-D mesh %v with %d faults -> %d MCCs, %d healthy nodes absorbed\n",
		m.Dims(), m.FaultCount(), cs.Len(), cs.TotalNonFaulty())
	for _, c := range cs.Components {
		corners := cs.Corners2D(c)
		fmt.Fprintf(w, "  %v initialization corner %v, opposite corner %v\n", c, corners.Initialization, corners.Opposite)
	}

	// The source's feasibility check: two detection messages (Algorithm 3).
	det := feasibility.Detect2D(l, s, d)
	fmt.Fprintf(w, "\nfeasibility check at %v: feasible=%v using %d detection hops\n", s, det.Feasible, det.Hops)

	// The same check as real messages over the simulated network.
	dres := protocol.RunDetection2D(m, l, s, d)
	fmt.Fprintf(w, "distributed detection: feasible=%v (%d forward, %d reply hops)\n",
		dres.Feasible, dres.ForwardHops, dres.ReplyHops)

	// Boundary construction distributes the MCC records; then the routing
	// message finds its way with node-local information only.
	info := protocol.RunInformationModel(m, l, cs)
	fmt.Fprintf(w, "information model: %d identify + %d boundary messages, records on %d nodes\n",
		info.IdentifyMessages, info.BoundaryMessages, len(info.Records))
	res := protocol.RunRouting(m, cs, info.Records, s, d)
	fmt.Fprintf(w, "distributed routing: delivered=%v minimal=%v in %d hops\n\n", res.Delivered, res.Minimal, res.Hops)

	fmt.Fprint(w, viz.Mesh2D(l, viz.Overlay{Path: res.Path}))
	fmt.Fprintln(w, viz.Legend())
}
