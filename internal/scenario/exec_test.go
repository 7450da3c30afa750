package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// dumpJSON renders a scenario's canonical spec dump as a generic map for
// structural assertions.
func dumpJSON(t *testing.T, sc *Scenario) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := sc.WriteSpec(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestLoadRejectsLegacyExecFields: the retired top-level workers/timeout
// spellings fail to load with an error pointing at the exec block, alone or
// next to an exec block.
func TestLoadRejectsLegacyExecFields(t *testing.T) {
	for _, tc := range []struct {
		name   string
		extras []string
	}{
		{"legacy-alone", []string{`"workers": 6`, `"timeout": 2.5`}},
		{"legacy-beside-exec", []string{
			`"exec": {"workers": 2}, "workers": 8`,
			`"exec": {"timeout": 1}, "timeout": 3`,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, extra := range tc.extras {
				raw := `{"mesh": {"x": 7, "y": 7, "z": 7}, "seed": 1, "trials": 1, ` + extra + `}`
				_, err := Load(strings.NewReader(raw))
				if err == nil || !strings.Contains(err.Error(), `"exec" block`) {
					t.Errorf("%s: error %v, want a rejection naming the exec block", extra, err)
				}
			}
		})
	}
}

// TestExecBlockOmittedWhenZero: a spec without execution overrides dumps
// without an exec block at all, keeping minimal specs minimal (and keeping
// every checked-in spec byte-stable across the exec redesign).
func TestExecBlockOmittedWhenZero(t *testing.T) {
	sc := mustNew(t, Spec{Mesh: Cube(7)})
	if _, ok := dumpJSON(t, sc)["exec"]; ok {
		t.Error("zero exec block survived normalisation into the dump")
	}
	// Explicitly setting the knobs back to zero removes the block again.
	spec := tinySpec()
	spec.SetShards(4)
	spec.SetShards(0)
	spec.SetWorkers(0)
	if spec.Exec != nil {
		t.Errorf("all-zero exec block not normalised away: %+v", spec.Exec)
	}
}

// TestExecRoundTrip: a dumped spec with a full exec block loads back to the
// same resolved values, and re-dumping is byte-stable (the canonical-form
// invariant CI enforces for specs/).
func TestExecRoundTrip(t *testing.T) {
	spec := tinySpec()
	spec.SetWorkers(3)
	spec.SetShards(4)
	spec.SetTimeout(1.5)
	sc := mustNew(t, spec)

	var buf bytes.Buffer
	if err := sc.WriteSpec(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	sc2, err := Load(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	spec2 := sc2.Spec()
	if spec2.WorkerCount() != 3 || spec2.ShardCount() != 4 || spec2.TimeoutSeconds() != 1.5 {
		t.Errorf("round-trip lost exec values: workers=%d shards=%d timeout=%v",
			spec2.WorkerCount(), spec2.ShardCount(), spec2.TimeoutSeconds())
	}
	var buf2 bytes.Buffer
	if err := sc2.WriteSpec(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != first {
		t.Errorf("dump not byte-stable across a load:\n--- first\n%s--- second\n%s", first, buf2.String())
	}
}

// TestDigestIgnoresExecBlock extends the workers-invariance digest contract
// to the whole exec block: execution resources never change a scenario's
// identity (or the `mcc serve` cache key).
func TestDigestIgnoresExecBlock(t *testing.T) {
	base := tinySpec().Digest()
	viaSetters := tinySpec()
	viaSetters.SetWorkers(16)
	viaSetters.SetShards(8)
	viaSetters.SetTimeout(30)
	if viaSetters.Digest() != base {
		t.Error("exec block changes the digest; the result cache would miss on an execution knob")
	}
}

// TestExecValidation: negative shard counts and non-finite or negative
// timeouts are rejected at New time.
func TestExecValidation(t *testing.T) {
	bad := tinySpec()
	bad.SetShards(-2)
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Errorf("negative shards: err = %v, want a shards range error", err)
	}
	for _, secs := range []float64{-1, math.NaN()} {
		b := tinySpec()
		b.SetTimeout(secs)
		if _, err := New(b); err == nil || !strings.Contains(err.Error(), "timeout") {
			t.Errorf("timeout %v: err = %v, want a timeout range error", secs, err)
		}
	}
}

// TestExecOptions: the facade options write through to the resolved exec
// block.
func TestExecOptions(t *testing.T) {
	sc, err := Build(WithCube(7), WithWorkers(2), WithShards(3), WithTimeout(4.5))
	if err != nil {
		t.Fatal(err)
	}
	spec := sc.Spec()
	if spec.WorkerCount() != 2 || spec.ShardCount() != 3 || spec.TimeoutSeconds() != 4.5 {
		t.Errorf("options lost: workers=%d shards=%d timeout=%v",
			spec.WorkerCount(), spec.ShardCount(), spec.TimeoutSeconds())
	}
}

// TestTrafficShardsInvariantTelemetryAndCells: the scenario-level shards
// contract — cells, raw values and semantic telemetry counters are identical
// between a sequential and a sharded run of the same multi-cell spec.
// (Queue-shape counters are per-shard structures and legitimately differ;
// the semantic traffic/churn counters must not.)
func TestTrafficShardsInvariantTelemetryAndCells(t *testing.T) {
	run := func(shards int) *Report {
		spec := tinySpec()
		spec.SetShards(shards)
		return mustRun(t, mustNew(t, spec, WithTelemetry()))
	}
	want, got := run(1), run(4)
	if wantCSV, gotCSV := want.Table.CSV(), got.Table.CSV(); gotCSV != wantCSV {
		t.Errorf("table differs at 4 shards:\n--- sharded\n%s--- sequential\n%s", gotCSV, wantCSV)
	}
	wantCells, _ := json.Marshal(want.Cells)
	gotCells, _ := json.Marshal(got.Cells)
	if !bytes.Equal(wantCells, gotCells) {
		t.Errorf("raw cells differ at 4 shards:\n--- sharded\n%s\n--- sequential\n%s", gotCells, wantCells)
	}
	semantic := []string{
		"traffic.injected", "traffic.delivered", "traffic.stuck", "traffic.lost",
		"churn.failures", "churn.repairs",
	}
	for i := range want.Telemetry {
		for _, name := range semantic {
			if w, g := want.Telemetry[i].Counters[name], got.Telemetry[i].Counters[name]; w != g {
				t.Errorf("cell %d counter %s: %d at 4 shards, want %d", i, name, g, w)
			}
		}
	}
}
