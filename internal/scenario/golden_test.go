package scenario

import (
	"os"
	"testing"
)

// loadSpecFile loads a checked-in spec from specs/ through Load, the exact
// path `mcc run -spec` takes, and returns its normalised spec.
func loadSpecFile(t *testing.T, name string) Spec {
	t.Helper()
	f, err := os.Open("../../specs/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc, err := Load(f)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return sc.Spec()
}

// TestE7GoldenOutput is the scheduler-order regression run: specs/e7.json
// must reproduce testdata/e7_golden.csv byte for byte, at any worker count.
// The golden file was captured before the index-first decision-stack refactor
// (PR 4), so any change to event order, provider decisions, labelling
// results or RNG consumption — however subtle — fails here. It runs the full
// 18-cell × 30-trial experiment (~4 s per worker sweep), so -short skips it.
func TestE7GoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second full E7 run")
	}
	golden, err := os.ReadFile("testdata/e7_golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	// The sweep crosses trial-level parallelism (workers) with intra-trial
	// spatial sharding (PR 10): every combination must reproduce the same
	// bytes the sequential single-worker run produces.
	for _, exec := range []struct{ workers, shards int }{
		{1, 1}, {3, 1}, {3, 2}, {1, 8},
	} {
		spec := loadSpecFile(t, "e7.json")
		spec.SetWorkers(exec.workers)
		spec.SetShards(exec.shards)
		rep := mustRun(t, mustNew(t, spec))
		if got := rep.Table.CSV(); got != string(golden) {
			t.Errorf("specs/e7.json output drifted from the pre-refactor golden at %d workers, %d shards:\n--- got\n%s--- want\n%s",
				exec.workers, exec.shards, got, golden)
		}
	}
}

// TestRoutingGoldenOutputs pins the routing-measure tables E1–E6: each
// specs/eN.json must reproduce testdata/eN_golden.csv byte for byte at 1 and
// 8 workers. The goldens were captured from the Go drivers that built these
// specs before the spec files replaced them, so the files are the tables of
// record. All six together take a few seconds, so -short skips them.
func TestRoutingGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second full E1–E6 runs")
	}
	for _, exp := range []string{"e1", "e2", "e3", "e4", "e5", "e6"} {
		t.Run(exp, func(t *testing.T) {
			golden, err := os.ReadFile("testdata/" + exp + "_golden.csv")
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 8} {
				spec := loadSpecFile(t, exp+".json")
				spec.SetWorkers(workers)
				rep := mustRun(t, mustNew(t, spec))
				if got := rep.Table.CSV(); got != string(golden) {
					t.Errorf("specs/%s.json output drifted from the golden at %d workers:\n--- got\n%s--- want\n%s",
						exp, workers, got, golden)
				}
			}
		})
	}
}
