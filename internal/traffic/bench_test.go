package traffic_test

// Benchmarks for the continuous-traffic hot path on the PERFORMANCE.md
// reference workload: a 16x16x16 mesh, ~3% uniform faults, hotspot traffic at
// rate 0.02. `go test -bench Hotspot -benchtime 3x ./internal/traffic` is the
// quick reproduction; `mcc bench -json BENCH_traffic.json` is the
// machine-readable one.

import (
	"testing"

	"mccmesh/internal/core"
	"mccmesh/internal/fault"
	"mccmesh/internal/mesh"
	"mccmesh/internal/rng"
	"mccmesh/internal/simnet"
	"mccmesh/internal/telemetry"
	"mccmesh/internal/traffic"
)

// benchEngine builds the reference workload for one trial.
func benchEngine(tb testing.TB, model string, seed uint64, window simnet.Time) *traffic.Engine {
	m := mesh.New3D(16, 16, 16)
	fault.Uniform{Count: 120}.Inject(m, rng.New(rng.Derive(seed, 1<<48)))
	im, err := traffic.ModelByName(model, core.NewModel(m))
	if err != nil {
		tb.Fatal(err)
	}
	p, err := traffic.PatternByName("hotspot", m, 0.1)
	if err != nil {
		tb.Fatal(err)
	}
	return traffic.NewEngine(m, im, p, traffic.Options{
		Rate: 0.02, Warmup: 50, Window: window, MaxEvents: 50_000_000,
	})
}

// churnBenchEngine is benchEngine plus the reference churn timeline: region
// failures of three nodes arriving with MTTF 40 and repaired with MTTR 100 —
// the workload of the "churn" bench cell.
func churnBenchEngine(tb testing.TB, seed uint64, window simnet.Time) *traffic.Engine {
	m := mesh.New3D(16, 16, 16)
	fault.Uniform{Count: 120}.Inject(m, rng.New(rng.Derive(seed, 1<<48)))
	im, err := traffic.ModelByName("mcc", core.NewModel(m))
	if err != nil {
		tb.Fatal(err)
	}
	p, err := traffic.PatternByName("hotspot", m, 0.1)
	if err != nil {
		tb.Fatal(err)
	}
	shape, err := fault.Build("region", map[string]any{"size": 3})
	if err != nil {
		tb.Fatal(err)
	}
	return traffic.NewEngine(m, im, p, traffic.Options{
		Rate: 0.02, Warmup: 50, Window: window, MaxEvents: 50_000_000,
		Timeline: &fault.Timeline{Until: int64(50 + window), MTTF: 40, MTTR: 100, Shape: shape},
	})
}

// BenchmarkHotspot16MCCChurn runs the headline workload under fault churn:
// the same mesh and traffic as BenchmarkHotspot16MCC with the reference
// timeline failing and repairing region clusters mid-run.
func BenchmarkHotspot16MCCChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := churnBenchEngine(b, 7, 500).Run(7)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		if res.Delivered == 0 || res.Failures == 0 {
			b.Fatal("no traffic delivered or no churn fired")
		}
		b.ReportMetric(float64(res.Events), "events/op")
	}
}

func benchHotspot16(b *testing.B, model string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := benchEngine(b, model, 7, 500).Run(7)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		if res.Delivered == 0 {
			b.Fatal("no traffic delivered")
		}
		b.ReportMetric(float64(res.Events), "events/op")
	}
}

// BenchmarkHotspot16MCC is the headline benchmark: the paper's MCC
// information model under hotspot load.
func BenchmarkHotspot16MCC(b *testing.B) { benchHotspot16(b, "mcc") }

// BenchmarkHotspot16Local isolates the event-core + engine overhead: the
// stateless local-greedy model makes no information-model queries beyond a
// constant-time check.
func BenchmarkHotspot16Local(b *testing.B) { benchHotspot16(b, "local") }

// benchHotspot32 is the sharding A/B workload: the 32x32x32 cell of the
// "shards4" bench spec (400 uniform faults, hotspot at rate 0.02, window
// 200), run sequentially (shards <= 1) or across slab shards. Both variants
// produce bit-identical results; only events/sec moves.
func benchHotspot32(b *testing.B, model string, shards int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := mesh.New3D(32, 32, 32)
		fault.Uniform{Count: 400}.Inject(m, rng.New(rng.Derive(7, 1<<48)))
		im, err := traffic.ModelByName(model, core.NewModel(m))
		if err != nil {
			b.Fatal(err)
		}
		p, err := traffic.PatternByName("hotspot", m, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		e := traffic.NewEngine(m, im, p, traffic.Options{
			Rate: 0.02, Warmup: 50, Window: 200, MaxEvents: 100_000_000,
			Shards: shards,
			ShardModel: func() (traffic.InfoModel, error) {
				return traffic.ModelByName(model, core.NewModel(m))
			},
		})
		res := e.Run(7)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		if res.Delivered == 0 {
			b.Fatal("no traffic delivered")
		}
		b.ReportMetric(float64(res.Events), "events/op")
	}
}

// BenchmarkHotspot32MCC is the sequential side of the sharding A/B.
func BenchmarkHotspot32MCC(b *testing.B) { benchHotspot32(b, "mcc", 1) }

// BenchmarkHotspot32Local is the event-core cell at a memory-bound size: the
// 32x32x32 trial under the stateless local-greedy model. Its per-node tables
// outgrow the caches that hold BenchmarkHotspot16Local's, so it shows what
// the per-hop path reads from memory beyond the packet record.
func BenchmarkHotspot32Local(b *testing.B) { benchHotspot32(b, "local", 1) }

// BenchmarkHotspot32MCCShards4 runs the same trial across 4 slab shards —
// the Go-benchmark twin of the BENCH_traffic.json "shards4" cell (which is
// informational in `mcc bench -baseline`: parallel speed-up moves with the
// runner's cores, so it is tracked, never gated).
func BenchmarkHotspot32MCCShards4(b *testing.B) { benchHotspot32(b, "mcc", 4) }

// BenchmarkHotspot16MCCTelemetry is BenchmarkHotspot16MCC with the telemetry
// counters live — the on/off pair that pins the instrumentation overhead
// (<5% events/s; see PERFORMANCE.md).
func BenchmarkHotspot16MCCTelemetry(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := mesh.New3D(16, 16, 16)
		fault.Uniform{Count: 120}.Inject(m, rng.New(rng.Derive(7, 1<<48)))
		im, err := traffic.ModelByName("mcc", core.NewModel(m))
		if err != nil {
			b.Fatal(err)
		}
		p, err := traffic.PatternByName("hotspot", m, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		e := traffic.NewEngine(m, im, p, traffic.Options{
			Rate: 0.02, Warmup: 50, Window: 500, MaxEvents: 50_000_000, Telemetry: true,
		})
		res := e.Run(7)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		if res.Telemetry == nil || res.Telemetry.Get(telemetry.PacketsDelivered) == 0 {
			b.Fatal("telemetry sink missing or empty")
		}
		b.ReportMetric(float64(res.Events), "events/op")
	}
}
