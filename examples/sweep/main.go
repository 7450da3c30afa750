// sweep runs a miniature version of the paper's evaluation — the two
// headline tables (healthy-node absorption and minimal-routing success rate)
// on a small mesh — expressed as two declarative scenarios that differ only
// in their measure. `mcc run -spec specs/e1.json` (and e2.json) runs the
// full sweeps.
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
	for _, measure := range []string{mccmesh.MeasureAbsorption, mccmesh.MeasureSuccess} {
		sc, err := mccmesh.NewScenario(
			mccmesh.WithCube(8),
			mccmesh.WithFaultCounts(5, 15, 30, 50),
			mccmesh.WithMeasure(measure),
			mccmesh.WithTrials(10),
			mccmesh.WithPairs(6),
			mccmesh.WithMinDistance(10),
			mccmesh.WithSeed(20050500),
		)
		if err != nil {
			return err
		}
		rep, err := sc.Run(context.Background())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, rep.Table.Render())
	}
	return nil
}
