// Quickstart: build a 3-D mesh, inject faults, construct the MCC
// fault-information model, check minimal-path feasibility and route a message.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"mccmesh"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A 10x10x10 mesh with 40 uniformly random faulty nodes (the corners stay
	// healthy so the example endpoints always exist).
	m := mccmesh.NewCube(10)
	r := mccmesh.NewRand(42)
	s := mccmesh.At(0, 0, 0)
	d := mccmesh.At(9, 9, 9)
	mccmesh.InjectUniform(m, r, 40, s, d)

	model := mccmesh.NewModel(m)
	fmt.Fprintf(w, "mesh %v with %d faults\n", m.Dims(), m.FaultCount())
	fmt.Fprintf(w, "MCC fault regions: %d, healthy nodes absorbed: %d\n",
		model.Regions(mccmesh.OrientationOf(s, d)).Len(),
		model.AbsorbedHealthyNodes(mccmesh.OrientationOf(s, d)))

	// Feasibility check at the source (Theorem 2 of the paper).
	if !model.Feasible(s, d) {
		return fmt.Errorf("no minimal path from %v to %v exists with this fault pattern", s, d)
	}

	// Fully adaptive minimal routing under the MCC model (Algorithm 6).
	trace, err := model.Route(s, d)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "routed %v -> %v in %d hops (distance %d)\n", s, d, trace.Hops(), mccmesh.Distance(s, d))
	fmt.Fprintf(w, "first hops: %v ...\n", trace.Path[:4])

	// The same request, fully distributed: detection messages followed by a
	// hop-by-hop routing message that consults only node-local records.
	feasible, hops := model.FeasibleByDetection(s, d)
	res := model.RouteDistributed(s, d)
	fmt.Fprintf(w, "distributed detection: feasible=%v using %d message hops\n", feasible, hops)
	fmt.Fprintf(w, "distributed routing  : delivered=%v minimal=%v in %d hops\n", res.Delivered, res.Minimal, res.Hops)
	return nil
}
