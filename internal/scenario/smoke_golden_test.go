package scenario

import (
	"bytes"
	"os"
	"testing"
)

// TestSmokeGolden pins specs/smoke.json — traffic with a mid-run fault
// schedule over the mcc and rfb models — to three captured files: the CSV
// table and the sampled packet traces at 1 and 4 shards, and the per-cell
// telemetry counters at 1 shard with tracing off. Counters are compared at
// one shard only: a sharded trial builds one model per slab, so its field
// counters legitimately differ. Regenerate with
//
//	go run ./cmd/mcc run -spec specs/smoke.json -csv > internal/scenario/testdata/smoke_golden.csv
//	go run ./cmd/mcc run -spec specs/smoke.json -metrics internal/scenario/testdata/smoke_metrics_golden.json > /dev/null
//	go run ./cmd/mcc run -spec specs/smoke.json -trace internal/scenario/testdata/smoke_traces_golden.jsonl > /dev/null
func TestSmokeGolden(t *testing.T) {
	read := func(name string) string {
		t.Helper()
		b, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	wantCSV := read("smoke_golden.csv")
	wantMetrics := read("smoke_metrics_golden.json")
	wantTraces := read("smoke_traces_golden.jsonl")
	run := func(shards int, opts ...Option) *Report {
		spec := loadSpecFile(t, "smoke.json")
		spec.SetShards(shards)
		return mustRun(t, mustNew(t, spec, opts...))
	}
	for _, shards := range []int{1, 4} {
		if got := run(shards).Table.CSV(); got != wantCSV {
			t.Errorf("smoke table drifted from the golden at %d shards:\n--- got\n%s--- want\n%s", shards, got, wantCSV)
		}
		var traces bytes.Buffer
		if err := run(shards, WithTracing(0)).WriteTracesJSONL(&traces); err != nil {
			t.Fatal(err)
		}
		if traces.String() != wantTraces {
			t.Errorf("smoke traces drifted from the golden at %d shards", shards)
		}
	}
	var metrics bytes.Buffer
	if err := WriteMetricsJSON(&metrics, run(1, WithTelemetry())); err != nil {
		t.Fatal(err)
	}
	if metrics.String() != wantMetrics {
		t.Errorf("smoke counters drifted from the golden:\n--- got\n%s--- want\n%s", metrics.String(), wantMetrics)
	}
}
