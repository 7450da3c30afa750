// Figure 5: the paper's worked 3-D example. The eight faults of Figure 5(a)
// produce, under the rectangular-faulty-block model, one large block that
// swallows 72 healthy nodes; under the MCC model (Figure 5(b)) they produce
// two small regions that absorb only the two healthy nodes (5,5,5) and
// (5,5,7).
package main

import (
	"fmt"
	"io"
	"os"

	"mccmesh"
	"mccmesh/internal/block"
	"mccmesh/internal/viz"
)

func main() { run(os.Stdout) }

func run(w io.Writer) {
	m := mccmesh.New3D(10, 10, 10)
	faults := []mccmesh.Point{
		mccmesh.At(5, 5, 6), mccmesh.At(6, 5, 5), mccmesh.At(5, 6, 5),
		mccmesh.At(6, 7, 5), mccmesh.At(7, 6, 5), mccmesh.At(5, 4, 7),
		mccmesh.At(4, 5, 7), mccmesh.At(7, 8, 4),
	}
	m.AddFaults(faults...)

	model := mccmesh.NewModel(m)
	orient := mccmesh.OrientationOf(mccmesh.At(0, 0, 0), mccmesh.At(9, 9, 9))
	l := model.Labeling(orient)
	cs := model.Regions(orient)

	fmt.Fprintln(w, "Figure 5 fault set:", faults)
	fmt.Fprintf(w, "labelling: %d faulty, %d useless, %d can't-reach\n",
		l.Count(mccmesh.Faulty), l.Count(mccmesh.Useless), l.Count(mccmesh.CantReach))
	for _, c := range cs.Components {
		fmt.Fprintf(w, "  %v\n", c)
	}

	rfb := model.Blocks(block.BoundingBox)
	fmt.Fprintf(w, "\nMCC model absorbs %d healthy nodes; the RFB baseline absorbs %d (block %v)\n",
		cs.TotalNonFaulty(), rfb.TotalNonFaulty(), rfb.Blocks[0].Bounds)

	fmt.Fprintln(w, "\nSlices of the labelling (compare with Figure 5(b)):")
	fmt.Fprint(w, viz.Slices(l, viz.Overlay{}))
	fmt.Fprintln(w, viz.Legend())

	// Routing across the fault region: the paper's point is that minimal paths
	// survive because the MCC regions are so small.
	s, d := mccmesh.At(3, 3, 3), mccmesh.At(8, 8, 8)
	trace, err := model.Route(s, d)
	if err != nil {
		fmt.Fprintln(w, "routing failed:", err)
		return
	}
	fmt.Fprintf(w, "\nrouted %v -> %v in %d hops despite the fault cluster\n", s, d, trace.Hops())
}
