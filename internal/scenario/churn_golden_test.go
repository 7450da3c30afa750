package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestChurnGoldenOutput pins specs/churn.json — the fault-churn scenario with
// a stochastic fail/repair timeline — to its captured golden table, at any
// worker count: the churn engine's event order, incremental repair path and
// RNG stream layout must stay bit-stable.
func TestChurnGoldenOutput(t *testing.T) {
	golden, err := os.ReadFile("testdata/churn_golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	// Full cross of trial workers × intra-trial shards: churn events run at
	// the shard barrier (coordinator side), so this pins the sharded engine's
	// churn ordering against the sequential golden too.
	for _, workers := range []int{1, 8} {
		for _, shards := range []int{1, 2, 8} {
			spec := loadSpecFile(t, "churn.json")
			spec.SetWorkers(workers)
			spec.SetShards(shards)
			rep := mustRun(t, mustNew(t, spec))
			if got := rep.Table.CSV(); got != string(golden) {
				t.Errorf("specs/churn.json output drifted from the golden at %d workers, %d shards:\n--- got\n%s--- want\n%s",
					workers, shards, got, golden)
			}
		}
	}
}

// TestChurnSpecRoundTripsByteStable: the checked-in churn spec must be in
// canonical dumped form — loading it and re-marshalling (what `mcc run
// -dump-spec` does) reproduces the file byte for byte, the invariant the CI
// spec-validation step enforces for every file in specs/.
func TestChurnSpecRoundTripsByteStable(t *testing.T) {
	raw, err := os.ReadFile("../../specs/churn.json")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sc.Spec()); err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(raw) {
		t.Errorf("specs/churn.json is not in canonical dumped form:\n--- dumped\n%s--- file\n%s", buf.String(), raw)
	}
}
