package scenario

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestSmokeGolden pins specs/smoke.json — traffic with a mid-run fault
// schedule over the mcc and rfb models — to three captured files: the CSV
// table and the sampled packet traces at 1 and 4 shards, and the per-cell
// telemetry counters at 1 shard with tracing off, each at 1 and at 8 trial
// workers. Counters are compared at one shard only: a sharded trial builds
// one model per slab, so its field counters legitimately differ. The
// counters must show every cell counting and every mcc cell both hitting and
// building decision fields, and traces must have been sampled. Regenerate
// with
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
	for _, workers := range []int{1, 8} {
		run := func(shards int, opts ...Option) *Report {
			spec := loadSpecFile(t, "smoke.json")
			spec.SetShards(shards)
			spec.SetWorkers(workers)
			return mustRun(t, mustNew(t, spec, opts...))
		}
		for _, shards := range []int{1, 4} {
			if got := run(shards).Table.CSV(); got != wantCSV {
				t.Errorf("smoke table drifted from the golden at %d workers, %d shards:\n--- got\n%s--- want\n%s", workers, shards, got, wantCSV)
			}
			var traces bytes.Buffer
			if err := run(shards, WithTracing(0)).WriteTracesJSONL(&traces); err != nil {
				t.Fatal(err)
			}
			if traces.Len() == 0 {
				t.Errorf("no smoke traces sampled at %d workers, %d shards", workers, shards)
			}
			if traces.String() != wantTraces {
				t.Errorf("smoke traces drifted from the golden at %d workers, %d shards", workers, shards)
			}
		}
		rep := run(1, WithTelemetry())
		var metrics bytes.Buffer
		if err := WriteMetricsJSON(&metrics, rep); err != nil {
			t.Fatal(err)
		}
		if metrics.String() != wantMetrics {
			t.Errorf("smoke counters drifted from the golden at %d workers:\n--- got\n%s--- want\n%s", workers, metrics.String(), wantMetrics)
		}
		mcc := 0
		for _, c := range rep.Telemetry {
			if len(c.Counters) == 0 {
				t.Errorf("smoke cell %s counted nothing", c.Label)
			}
			if strings.Contains(c.Label, "/mcc/") {
				mcc++
				if c.Counters["routing.decision_hits"] == 0 || c.Counters["routing.decision_builds"] == 0 {
					t.Errorf("smoke cell %s: decision hits %d, builds %d, want both > 0", c.Label,
						c.Counters["routing.decision_hits"], c.Counters["routing.decision_builds"])
				}
			}
		}
		if len(rep.Telemetry) == 0 || mcc == 0 {
			t.Errorf("smoke counters: %d cells, %d of them mcc; want both > 0", len(rep.Telemetry), mcc)
		}
	}
}
