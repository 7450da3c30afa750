// traffic demonstrates the continuous-traffic workload engine through the
// public facade: one instrumented run with mid-run fault injection and a
// tuned hotspot pattern, followed by a small parallel throughput sweep —
// MCC vs the rectangular-block baseline — expressed as a scenario.
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
	// --- One instrumented run with mid-run fault injection ---------------
	m := mccmesh.New3D(8, 8, 8)
	mccmesh.InjectUniform(m, mccmesh.NewRand(1), 25)
	engine, err := mccmesh.NewTrafficEngine(m, "mcc", "hotspot", mccmesh.TrafficOptions{
		Rate:   0.02,
		Warmup: 50,
		Window: 300,
		// The hotspot knobs are plain library options now, same as the CLI's.
		PatternParams: map[string]any{"fraction": 0.15},
		// A board dies at t=150: five adjacent routers fail at once.
		Faults: []mccmesh.FaultEvent{{At: 150, Inject: mccmesh.ClusteredInjector(1, 5)}},
	})
	if err != nil {
		return err
	}
	res := engine.Run(7)

	fmt.Fprintf(w, "continuous hotspot traffic on 8x8x8, 25 static faults + 5 injected at t=150 (MCC model):\n")
	fmt.Fprintf(w, "  injected %d packets, delivered %d (%.1f%%), stuck %d, lost in flight %d\n",
		res.Injected, res.Delivered, 100*res.DeliveredRatio(), res.Stuck, res.Lost)
	fmt.Fprintf(w, "  throughput %.4f deliveries/node/tick (offered rate %.4f)\n", res.Throughput(), res.Rate)
	fmt.Fprintf(w, "  latency ticks: mean %.1f, p50 %d, p95 %d, p99 %d\n\n",
		res.Latency.Mean(), res.Latency.Percentile(0.50), res.Latency.Percentile(0.95), res.Latency.Percentile(0.99))

	// --- A parallel sweep: MCC vs rectangular blocks ---------------------
	sc, err := mccmesh.NewScenario(
		mccmesh.WithCube(8),
		mccmesh.WithFaultCounts(25),
		mccmesh.WithModels("mcc", "rfb"),
		mccmesh.WithPatterns("uniform", "transpose"),
		mccmesh.WithRates(0.01, 0.02),
		mccmesh.WithWarmup(50),
		mccmesh.WithWindow(150),
		mccmesh.WithTrials(4),
		mccmesh.WithSeed(20050506),
		mccmesh.WithWorkers(0), // GOMAXPROCS; any value yields the identical table
	)
	if err != nil {
		return err
	}
	rep, err := sc.Run(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, rep.Table.Render())
	return nil
}
