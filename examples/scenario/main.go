// scenario demonstrates the declarative scenario API: the whole experiment —
// mesh, clustered faults, a mid-run fault schedule, two information models,
// two traffic patterns, two injection rates — lives in spec.json, and this
// program just loads, runs and prints it. `go run ./cmd/mcc run -spec
// examples/scenario/spec.json` is the flagless equivalent.
package main

import (
	"context"
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
	f, err := os.Open("examples/scenario/spec.json")
	if err != nil {
		// Allow running from the example's own directory too (as go test
		// does).
		f, err = os.Open("spec.json")
	}
	if err != nil {
		return err
	}
	defer f.Close()

	sc, err := mccmesh.LoadScenario(f)
	if err != nil {
		return err
	}
	sc.Observe(func(ev mccmesh.ScenarioEvent) {
		if !ev.Done {
			fmt.Fprintf(w, "  cell %d/%d: %s\n", ev.Cell+1, ev.Total, ev.Label)
		}
	})

	spec := sc.Spec()
	fmt.Fprintf(w, "running scenario %q: %s mesh, %d trials per cell\n", spec.Name, spec.Mesh, spec.Trials)
	rep, err := sc.Run(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, rep.Table.Render())

	// The report also carries raw per-cell values for programmatic use.
	best := rep.Cells[0]
	for _, c := range rep.Cells {
		if c.Values["throughput"] > best.Values["throughput"] {
			best = c
		}
	}
	fmt.Fprintf(w, "best cell: %s over %s at rate %.3f -> %.4f deliveries/node/tick\n",
		best.Pattern, best.Model, best.Rate, best.Values["throughput"])
	return nil
}
