package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mccmesh/internal/registry"
	"mccmesh/internal/stats"
	"mccmesh/internal/traffic"
)

// tinySpec is a fast multi-cell traffic scenario exercising parameterised
// components and a mid-run fault schedule.
func tinySpec() Spec {
	return Spec{
		Name:   "tiny",
		Mesh:   Cube(7),
		Faults: FaultSpec{Inject: C("uniform"), Counts: []int{10}},
		Models: ComponentsOf("mcc", "rfb"),
		Workload: WorkloadSpec{
			Patterns: Components{
				C("uniform"),
				{Name: "hotspot", Params: map[string]any{"fraction": 0.2}},
			},
			Rates: []float64{0.02},
		},
		Measure: MeasureSpec{Kind: MeasureTraffic, Warmup: 10, Window: 60},
		Seed:    42,
		Trials:  3,
		Exec:    &ExecSpec{Workers: 1},
	}
}

func mustRun(t *testing.T, sc *Scenario) *Report {
	t.Helper()
	rep, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestTrafficReportShape(t *testing.T) {
	sc, err := New(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	rep := mustRun(t, sc)
	if rep.Measure != MeasureTraffic {
		t.Errorf("measure = %q", rep.Measure)
	}
	wantCells := 2 * 2 * 1 // patterns × models × rates
	if len(rep.Cells) != wantCells || len(rep.Table.Rows) != wantCells {
		t.Fatalf("got %d cells / %d rows, want %d", len(rep.Cells), len(rep.Table.Rows), wantCells)
	}
	for i, c := range rep.Cells {
		if c.Index != i || c.Pattern == "" || c.Model == "" || c.Rate == 0 {
			t.Errorf("cell %d incomplete: %+v", i, c)
		}
		if len(c.Row) != len(rep.Table.Columns) {
			t.Errorf("cell %d: row width %d != %d columns", i, len(c.Row), len(rep.Table.Columns))
		}
	}
	// E7 sanity: traffic flowed, accepted throughput stays plausible for the
	// offered rate, and the latency percentiles are monotone.
	t.Run("e7-sanity", func(t *testing.T) {
		for i, c := range rep.Cells {
			v := c.Values
			if v["throughput"] <= 0 || v["throughput"] > c.Rate*1.5 {
				t.Errorf("cell %d: throughput %v implausible for rate %v", i, v["throughput"], c.Rate)
			}
			if v["delivered"] <= 0 || v["delivered"] > 1 {
				t.Errorf("cell %d: delivered ratio %v out of range", i, v["delivered"])
			}
			if v["p50"] > v["p95"] || v["p95"] > v["p99"] {
				t.Errorf("cell %d: percentiles not monotone: %v %v %v", i, v["p50"], v["p95"], v["p99"])
			}
		}
	})
}

// TestJSONRoundTripIdenticalReport is the scenario-API contract: a spec
// survives encode → decode and the decoded spec reproduces the identical
// report, regardless of the worker count.
func TestJSONRoundTripIdenticalReport(t *testing.T) {
	orig, err := New(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.WriteSpec(&buf); err != nil {
		t.Fatal(err)
	}
	encoded := buf.String()

	decoded, err := Load(strings.NewReader(encoded))
	if err != nil {
		t.Fatalf("round-trip decode failed: %v\nspec:\n%s", err, encoded)
	}
	// Workers is part of the spec but must not be part of the result:
	// run the original serially and the decoded copy on eight workers.
	decoded.spec.SetWorkers(8)

	repA := mustRun(t, orig)
	repB := mustRun(t, decoded)
	if repA.Table.CSV() != repB.Table.CSV() {
		t.Errorf("round-tripped spec produced a different table:\n--- original (workers=1)\n%s\n--- decoded (workers=8)\n%s",
			repA.Table.CSV(), repB.Table.CSV())
	}
	cellsA, _ := json.Marshal(repA.Cells)
	cellsB, _ := json.Marshal(repB.Cells)
	if string(cellsA) != string(cellsB) {
		t.Errorf("round-tripped spec produced different cells:\n%s\n%s", cellsA, cellsB)
	}
	// A second encode of the decoded scenario is byte-identical: the dump
	// format is canonical.
	var buf2 bytes.Buffer
	if err := decoded.WriteSpec(&buf2); err != nil {
		t.Fatal(err)
	}
	reEncoded := strings.ReplaceAll(buf2.String(), `"workers": 8`, `"workers": 1`)
	if reEncoded != encoded {
		t.Errorf("dump is not canonical:\n--- first\n%s\n--- second\n%s", encoded, buf2.String())
	}
}

func TestFaultScheduleRuns(t *testing.T) {
	spec := tinySpec()
	spec.Faults.Schedule = []ScheduledFault{
		{At: 30, Inject: Component{Name: "clustered", Params: map[string]any{"count": 5, "size": 5}}},
	}
	sc, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep := mustRun(t, sc)
	if len(rep.Cells) == 0 {
		t.Fatal("no cells")
	}
	// The schedule must change the outcome relative to the static run.
	static := mustRun(t, mustNew(t, tinySpec()))
	if rep.Table.CSV() == static.Table.CSV() {
		t.Error("mid-run fault schedule had no effect on the table")
	}
}

func mustNew(t *testing.T, spec Spec, opts ...Option) *Scenario {
	t.Helper()
	sc, err := New(spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestRoutingMeasuresFromSpec runs every routing measure from a spec: 6³
// plumbing sweeps check the table shape and cell labels, and 7³ sweeps (4
// trials of 4 pairs at distance >= 6, seeded from the stream of table Ek)
// assert the paper's claims on the tables E1–E6 report.
func TestRoutingMeasuresFromSpec(t *testing.T) {
	plumbing := func(kind string, counts ...int) Spec {
		return Spec{
			Mesh:    Cube(6),
			Faults:  FaultSpec{Inject: C("uniform"), Counts: counts},
			Measure: MeasureSpec{Kind: kind, Pairs: 3, MinDistance: 5},
			Seed:    7,
			Trials:  2,
		}
	}
	claim := func(kind string, k uint64, counts ...int) Spec {
		return Spec{
			Mesh:    Cube(7),
			Faults:  FaultSpec{Inject: C("uniform"), Counts: counts},
			Measure: MeasureSpec{Kind: kind, Pairs: 4, MinDistance: 6},
			Seed:    99 + k - 1,
			Trials:  4,
		}
	}
	clustered := claim(MeasureAbsorption, 1, 16)
	clustered.Faults.Inject = Component{Name: "clustered", Params: map[string]any{"size": 4}}
	clustered.Trials = 3
	twoD := claim(MeasureAbsorption, 1, 4)
	twoD.Mesh = Square(7)
	twoD.Trials, twoD.Measure.Pairs = 2, 2
	distance := claim(MeasureDistance, 3, 15)
	distance.Measure.MinDistance = 2 // E3 spans all distances

	// E1: the MCC model absorbs no more healthy nodes than either
	// rectangular-block baseline (bounding box, convexity rule).
	mccAbsorbsLeast := func(t *testing.T, tab *stats.Table) {
		for _, row := range tab.Rows {
			mcc, rfb, rule := parseF(t, row[2]), parseF(t, row[4]), parseF(t, row[5])
			if mcc > rfb+1e-9 {
				t.Errorf("MCC (%v) absorbed more than RFB (%v)", mcc, rfb)
			}
			if mcc > rule+1e-9 {
				t.Errorf("MCC (%v) absorbed more than the rule-based blocks (%v)", mcc, rule)
			}
		}
	}
	cases := []struct {
		name  string
		spec  Spec
		rows  int // 0: any non-empty table
		check func(t *testing.T, tab *stats.Table)
	}{
		{"absorption", plumbing(MeasureAbsorption, 4, 12), 2, nil},
		{"success", plumbing(MeasureSuccess, 4, 12), 2, nil},
		{"overhead", plumbing(MeasureOverhead, 4, 12), 2, nil},
		{"ablation", plumbing(MeasureAblation, 4, 12), 2, nil},
		{"distance", plumbing(MeasureDistance, 10), 0, nil},
		{"adaptivity", plumbing(MeasureAdaptivity, 10), 0, nil},
		{"e1-claim", claim(MeasureAbsorption, 1, 5, 20), 2, mccAbsorbsLeast},
		{"e1-clustered-claim", clustered, 1, func(t *testing.T, tab *stats.Table) {
			if !strings.Contains(tab.Title, "clustered") {
				t.Errorf("title should mention the clustered workload: %q", tab.Title)
			}
			mccAbsorbsLeast(t, tab)
		}},
		{"e1-2d-title", twoD, 1, func(t *testing.T, tab *stats.Table) {
			if !strings.Contains(tab.Title, "7x7 ") {
				t.Errorf("2-D title should mention the 7x7 mesh: %q", tab.Title)
			}
		}},
		// E2: RFB <= MCC, and MCC matches the optimum (ultimacy), up to the
		// percentage formatting.
		{"e2-claim", claim(MeasureSuccess, 2, 5, 20), 2, func(t *testing.T, tab *stats.Table) {
			for _, row := range tab.Rows {
				mcc, rfb, optimal := parsePct(t, row[1]), parsePct(t, row[2]), parsePct(t, row[6])
				if mcc < rfb-1e-9 {
					t.Errorf("MCC success (%v%%) below RFB success (%v%%)", mcc, rfb)
				}
				if mcc > optimal+1e-9 || optimal-mcc > 0.11 {
					t.Errorf("MCC success (%v%%) should match the optimum (%v%%)", mcc, optimal)
				}
			}
		}},
		{"e3-shape", distance, 4, nil},
		// E4: with 20 faults the protocol exchanges identification and
		// boundary messages and some nodes hold records.
		{"e4-claim", claim(MeasureOverhead, 4, 5, 20), 2, func(t *testing.T, tab *stats.Table) {
			heavy := tab.Rows[1]
			for col, what := range map[int]string{2: "identification messages", 3: "boundary messages", 5: "record holders"} {
				if parseF(t, heavy[col]) <= 0 {
					t.Errorf("%s should be positive with 20 faults: %v", what, heavy)
				}
			}
		}},
		// E5: border-safe labelling absorbs no more than border-blocked.
		{"e5-claim", claim(MeasureAblation, 5, 5, 20), 2, func(t *testing.T, tab *stats.Table) {
			for _, row := range tab.Rows {
				if safe, blocked := parseF(t, row[1]), parseF(t, row[2]); safe > blocked+1e-9 {
					t.Errorf("border-safe labelling (%v) absorbed more than border-blocked (%v)", safe, blocked)
				}
			}
		}},
		// E6: RFB <= MCC <= fault-free minimal-path counts.
		{"e6-claim", claim(MeasureAdaptivity, 6, 15), 3, func(t *testing.T, tab *stats.Table) {
			free, mcc, rfb := parseF(t, tab.Rows[0][1]), parseF(t, tab.Rows[0][2]), parseF(t, tab.Rows[0][3])
			if mcc > free+1e-9 {
				t.Errorf("MCC path count (%v) exceeds the fault-free count (%v)", mcc, free)
			}
			if rfb > mcc+1e-9 {
				t.Errorf("RFB path count (%v) exceeds the MCC count (%v)", rfb, mcc)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := mustRun(t, mustNew(t, tc.spec))
			rows := len(rep.Table.Rows)
			if (tc.rows == 0 && rows == 0) || (tc.rows > 0 && rows != tc.rows) {
				t.Fatalf("got %d rows, want %d", rows, tc.rows)
			}
			if counts := tc.spec.Faults.Counts; rows == len(counts) {
				for i, c := range rep.Cells {
					if c.Faults != counts[i] {
						t.Errorf("cell %d labelled %d faults, want %d", i, c.Faults, counts[i])
					}
				}
			}
			if tc.check != nil {
				tc.check(t, rep.Table)
			}
		})
	}
}

func parseF(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q is not a number", cell)
	}
	return v
}

func parsePct(t *testing.T, cell string) float64 {
	t.Helper()
	return parseF(t, strings.TrimSuffix(cell, "%"))
}

func TestMeasureAliases(t *testing.T) {
	sc := mustNew(t, Spec{
		Mesh:    Cube(6),
		Faults:  FaultSpec{Inject: C("uniform"), Counts: []int{4}},
		Measure: MeasureSpec{Kind: "e1"},
		Trials:  1,
	})
	rep := mustRun(t, sc)
	if rep.Measure != MeasureAbsorption {
		t.Errorf("alias e1 resolved to %q", rep.Measure)
	}
}

func TestDefaultsFill(t *testing.T) {
	sc := mustNew(t, Spec{Mesh: Cube(5)})
	spec := sc.Spec()
	if spec.Measure.Kind != MeasureTraffic || spec.Trials != 1 {
		t.Errorf("defaults not applied: %+v", spec.Measure)
	}
	if len(spec.Models) != 1 || spec.Models[0].Name != "mcc" {
		t.Errorf("default model: %v", spec.Models)
	}
	if len(spec.Workload.Patterns) != 1 || spec.Workload.Patterns[0].Name != "uniform" {
		t.Errorf("default pattern: %v", spec.Workload.Patterns)
	}
	if len(spec.Workload.Rates) != 1 || spec.Workload.Rates[0] != 0.01 {
		t.Errorf("default rates: %v", spec.Workload.Rates)
	}
	if spec.Faults.Inject.Name != "uniform" || len(spec.Faults.Counts) != 1 || spec.Faults.Counts[0] != 0 {
		t.Errorf("default faults: %+v", spec.Faults)
	}
	if spec.Measure.Window != 256 {
		t.Errorf("default window: %d", spec.Measure.Window)
	}
}

// TestCountFreeInjectors covers injectors whose schema has no "count"
// parameter: they must be usable as a scenario's static fault workload with
// their params passed verbatim.
func TestCountFreeInjectors(t *testing.T) {
	sc := mustNew(t, Spec{
		Mesh:    Cube(6),
		Faults:  FaultSpec{Inject: Component{Name: "rate", Params: map[string]any{"p": 0.08}}},
		Measure: MeasureSpec{Kind: MeasureAbsorption},
		Seed:    3,
		Trials:  2,
	})
	rep := mustRun(t, sc)
	if len(rep.Table.Rows) != 1 {
		t.Fatalf("rate-injector scenario produced %d rows", len(rep.Table.Rows))
	}
	sc = mustNew(t, Spec{
		Mesh: Cube(6),
		Faults: FaultSpec{Inject: Component{Name: "block", Params: map[string]any{
			"min": []any{1, 1, 1}, "max": []any{2, 2, 2},
		}}},
		Measure: MeasureSpec{Kind: MeasureAbsorption},
		Trials:  1,
	})
	mustRun(t, sc)
}

// TestMalformedInjectorCountIsRejected: a bad "count" on the injector must
// fail validation, not silently produce an empty sweep.
func TestMalformedInjectorCountIsRejected(t *testing.T) {
	_, err := New(Spec{
		Mesh:    Cube(6),
		Faults:  FaultSpec{Inject: Component{Name: "uniform", Params: map[string]any{"count": 5.5}}},
		Measure: MeasureSpec{Kind: MeasureAbsorption},
	})
	if err == nil || !strings.Contains(err.Error(), "not an integer") {
		t.Errorf("fractional count should fail validation: %v", err)
	}
}

// TestDistanceMeasureHonoursMinDistance: the spec field must change the
// sampling (with a floor of 2 so distance buckets stay valid).
func TestDistanceMeasureHonoursMinDistance(t *testing.T) {
	run := func(minDist int) string {
		sc := mustNew(t, Spec{
			Mesh:    Cube(6),
			Faults:  FaultSpec{Inject: C("uniform"), Counts: []int{8}},
			Measure: MeasureSpec{Kind: MeasureDistance, Pairs: 6, MinDistance: minDist},
			Seed:    5,
			Trials:  4,
		})
		return mustRun(t, sc).Table.CSV()
	}
	if run(2) == run(14) {
		t.Error("mindistance had no effect on the distance measure")
	}
	if run(0) != run(2) {
		t.Error("mindistance below the floor should behave like the floor")
	}
}

func TestCountFromInjectorParams(t *testing.T) {
	sc := mustNew(t, Spec{
		Mesh:   Cube(6),
		Faults: FaultSpec{Inject: Component{Name: "uniform", Params: map[string]any{"count": 9}}},
	})
	if got := sc.Spec().Faults.Counts; len(got) != 1 || got[0] != 9 {
		t.Errorf("count not derived from injector params: %v", got)
	}
}

func TestValidationErrorsAreActionable(t *testing.T) {
	base := tinySpec()

	bad := base
	bad.Workload.Patterns = ComponentsOf("hotpsot")
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), `did you mean "hotspot"?`) {
		t.Errorf("pattern typo: %v", err)
	}

	bad = base
	bad.Models = ComponentsOf("mc")
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), `did you mean "mcc"?`) {
		t.Errorf("model typo: %v", err)
	}

	bad = base
	bad.Faults.Inject = C("unifrom")
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), `did you mean "uniform"?`) {
		t.Errorf("injector typo: %v", err)
	}

	bad = base
	bad.Measure.Kind = "trafic"
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), `did you mean "traffic"?`) {
		t.Errorf("measure typo: %v", err)
	}

	bad = base
	bad.Workload.Patterns = Components{{Name: "hotspot", Params: map[string]any{"fractoin": 0.5}}}
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), `did you mean "fraction"?`) {
		t.Errorf("param typo: %v", err)
	}

	bad = base
	bad.Workload.Rates = []float64{1.5}
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), "(0,1]") {
		t.Errorf("bad rate: %v", err)
	}

	bad = base
	bad.Mesh = MeshSpec{X: 1, Y: 5}
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), "extents") {
		t.Errorf("bad mesh: %v", err)
	}

	bad = base
	bad.Faults.Counts = []int{10_000}
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("bad count: %v", err)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	_, err := Load(strings.NewReader(`{"mesh": {"x": 5, "y": 5}, "mush": 3}`))
	if err == nil || !strings.Contains(err.Error(), "mush") {
		t.Errorf("unknown field should be rejected: %v", err)
	}
	// The strictness must survive the component custom unmarshaler too:
	// "parms" inside an inject object is a silent no-op unless rejected.
	_, err = Load(strings.NewReader(`{"mesh": {"x": 5, "y": 5}, "faults": {"inject": {"name": "clustered", "parms": {"size": 10}}}}`))
	if err == nil || !strings.Contains(err.Error(), "parms") {
		t.Errorf("unknown component key should be rejected: %v", err)
	}
}

// TestCountFreeInjectorLabels: tables for rate/block workloads must not claim
// a fault count of 0.
func TestCountFreeInjectorLabels(t *testing.T) {
	sc := mustNew(t, Spec{
		Mesh:    Cube(6),
		Faults:  FaultSpec{Inject: Component{Name: "rate", Params: map[string]any{"p": 0.1}}},
		Measure: MeasureSpec{Kind: MeasureAbsorption},
		Seed:    3,
		Trials:  2,
	})
	rep := mustRun(t, sc)
	row := rep.Table.Rows[0]
	if row[0] != "rate{p=0.1}" || row[1] != "n/a" {
		t.Errorf("count-free workload mislabelled: %v", row[:2])
	}
	if !strings.Contains(mustRun(t, mustNew(t, Spec{
		Mesh:    Cube(6),
		Faults:  FaultSpec{Inject: Component{Name: "rate", Params: map[string]any{"p": 0.1}}},
		Measure: MeasureSpec{Kind: MeasureTraffic, Window: 40},
		Trials:  1,
	})).Table.Title, "rate{p=0.1} faults") {
		t.Error("traffic title should name the count-free injector")
	}
}

// TestPatternComponentsCaseInsensitive: the legacy -hotspot knob attaches for
// any casing, matching the case-insensitive registry lookup.
func TestPatternComponentsCaseInsensitive(t *testing.T) {
	cs := PatternComponents([]string{"Hotspot", "uniform"}, 0.4)
	if cs[0].Params["fraction"] != 0.4 {
		t.Errorf("fraction dropped for cased name: %+v", cs[0])
	}
	if cs[1].Params != nil {
		t.Errorf("fraction leaked onto uniform: %+v", cs[1])
	}
}

func TestComponentJSONForms(t *testing.T) {
	var cs Components
	if err := json.Unmarshal([]byte(`"uniform"`), &cs); err != nil || len(cs) != 1 || cs[0].Name != "uniform" {
		t.Errorf("bare string: %v %v", cs, err)
	}
	if err := json.Unmarshal([]byte(`["uniform", {"name": "hotspot", "params": {"fraction": 0.3}}]`), &cs); err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || cs[1].Params["fraction"] != 0.3 {
		t.Errorf("mixed array: %+v", cs)
	}
	out, err := json.Marshal(cs)
	if err != nil || string(out) != `["uniform",{"name":"hotspot","params":{"fraction":0.3}}]` {
		t.Errorf("marshal: %s %v", out, err)
	}
}

func TestObserverStreamsProgress(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	sc := mustNew(t, tinySpec(), WithObserver(func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}))
	rep := mustRun(t, sc)
	wantCells := len(rep.Cells)
	if len(events) != 2*wantCells {
		t.Fatalf("got %d events, want %d (start+done per cell)", len(events), 2*wantCells)
	}
	for i := 0; i < wantCells; i++ {
		start, done := events[2*i], events[2*i+1]
		if start.Done || !done.Done {
			t.Errorf("cell %d: event order wrong: %+v %+v", i, start, done)
		}
		if start.Label == "" || start.Total != wantCells {
			t.Errorf("cell %d: bad start event: %+v", i, start)
		}
		if len(done.Row) == 0 {
			t.Errorf("cell %d: done event missing row", i)
		}
	}
}

// TestObserverStreamWorkersInvariant pins the full event stream — including
// the per-trial telemetry Progress events — as deterministic and identical at
// any worker count: Progress events are emitted in trial order after the
// sharded trials complete, never from the worker goroutines.
func TestObserverStreamWorkersInvariant(t *testing.T) {
	stream := func(workers int) []Event {
		var mu sync.Mutex
		var events []Event
		sc := mustNew(t, tinySpec(),
			WithWorkers(workers),
			WithTelemetry(),
			WithTracing(16),
			WithObserver(func(ev Event) {
				mu.Lock()
				events = append(events, ev)
				mu.Unlock()
			}))
		mustRun(t, sc)
		return events
	}
	one, eight := stream(1), stream(8)
	if !reflect.DeepEqual(one, eight) {
		if len(one) != len(eight) {
			t.Fatalf("event stream length differs: %d at workers=1, %d at workers=8", len(one), len(eight))
		}
		for i := range one {
			if !reflect.DeepEqual(one[i], eight[i]) {
				t.Fatalf("event %d differs:\nworkers=1: %+v\nworkers=8: %+v", i, one[i], eight[i])
			}
		}
	}
	var progress, withCounters int
	for _, ev := range one {
		if ev.Progress {
			progress++
			if ev.Counters != nil {
				withCounters++
			}
			if ev.Done {
				t.Errorf("Progress event also marked Done: %+v", ev)
			}
		}
	}
	if progress == 0 || withCounters != progress {
		t.Fatalf("want per-trial Progress events carrying counters, got %d (%d with counters)", progress, withCounters)
	}
}

// TestTelemetryReportSections checks the run-report pipeline end to end: a
// telemetry-enabled traffic run fills Report.Telemetry per cell, collects
// traces for WriteTracesJSONL and round-trips through WriteMetricsJSON.
func TestTelemetryReportSections(t *testing.T) {
	sc := mustNew(t, tinySpec(), WithTelemetry(), WithTracing(8))
	rep := mustRun(t, sc)
	if len(rep.Telemetry) != len(rep.Cells) {
		t.Fatalf("Report.Telemetry has %d entries, want one per cell (%d)", len(rep.Telemetry), len(rep.Cells))
	}
	for i, ct := range rep.Telemetry {
		if ct.Cell != i || ct.Label == "" || len(ct.Counters) == 0 {
			t.Errorf("cell %d telemetry malformed: %+v", i, ct)
		}
		if ct.Counters["traffic.injected"] == 0 {
			t.Errorf("cell %d counted no injected packets: %v", i, ct.Counters)
		}
	}
	if len(rep.Traces()) == 0 {
		t.Fatal("tracing-enabled run collected no traces")
	}
	var buf bytes.Buffer
	if err := rep.WriteTracesJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(rep.Traces()) {
		t.Fatalf("JSONL has %d lines, want %d", len(lines), len(rep.Traces()))
	}
	for _, line := range lines {
		var tr TraceRecord
		if err := json.Unmarshal([]byte(line), &tr); err != nil {
			t.Fatalf("trace line is not valid JSON: %v\n%s", err, line)
		}
	}
	buf.Reset()
	if err := WriteMetricsJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Cells []CellTelemetry `json:"cells"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("metrics JSON malformed: %v", err)
	}
	if len(doc.Cells) != len(rep.Telemetry) {
		t.Errorf("metrics JSON has %d cells, want %d", len(doc.Cells), len(rep.Telemetry))
	}
}

// TestTelemetryLeavesSpecAlone pins the spec byte-stability contract:
// telemetry knobs are execution state, so a telemetry-enabled scenario dumps
// exactly the same spec JSON as a plain one.
func TestTelemetryLeavesSpecAlone(t *testing.T) {
	plain := mustNew(t, tinySpec())
	instrumented := mustNew(t, tinySpec(), WithTelemetry(), WithTracing(8))
	var a, b bytes.Buffer
	if err := plain.WriteSpec(&a); err != nil {
		t.Fatal(err)
	}
	if err := instrumented.WriteSpec(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("enabling telemetry changed the dumped spec")
	}
}

func TestRunHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := mustNew(t, tinySpec())
	if _, err := sc.Run(ctx); err == nil {
		t.Error("cancelled context should abort the run")
	}
}

func TestOptionsBuildScenario(t *testing.T) {
	sc, err := Build(
		WithName("opt"),
		WithCube(7),
		WithFaults("clustered", Params{"size": 4}),
		WithFaultCounts(8),
		WithFaultSchedule(40, "uniform", Params{"count": 3}),
		WithModels("mcc"),
		WithModel("rfb"),
		WithPatterns("uniform"),
		WithPattern("hotspot", Params{"fraction": 0.15}),
		WithRates(0.02),
		WithMeasure("traffic"),
		WithWarmup(10),
		WithWindow(50),
		WithSeed(9),
		WithTrials(2),
		WithWorkers(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	spec := sc.Spec()
	if spec.Name != "opt" || spec.Mesh != Cube(7) || spec.Seed != 9 || spec.Trials != 2 || spec.WorkerCount() != 3 {
		t.Errorf("scalar options not applied: %+v", spec)
	}
	if spec.Faults.Inject.Name != "clustered" || len(spec.Faults.Schedule) != 1 {
		t.Errorf("fault options not applied: %+v", spec.Faults)
	}
	if len(spec.Models) != 2 || len(spec.Workload.Patterns) != 2 {
		t.Errorf("component options not applied: %+v", spec)
	}
	rep := mustRun(t, sc)
	if len(rep.Cells) != 4 {
		t.Errorf("got %d cells, want 4", len(rep.Cells))
	}
}

// TestCheckedInSpecsLoad guards the spec files shipped in specs/: they must
// stay loadable, and the smoke spec must reproduce identically across worker
// counts through the exact path `mcc run -spec` uses.
func TestCheckedInSpecsLoad(t *testing.T) {
	load := func(name string, workers int) *Scenario {
		t.Helper()
		spec := loadSpecFile(t, name)
		spec.SetWorkers(workers)
		return mustNew(t, spec)
	}

	// e7.json is the canonical default E7 experiment. TestE7GoldenOutput
	// pins its table (~4 s, skipped under -short); its shape is asserted here
	// so -short runs still guard the file.
	spec := loadSpecFile(t, "e7.json")
	if spec.Measure.Kind != MeasureTraffic || spec.Mesh != Cube(10) || spec.Trials != 30 {
		t.Errorf("specs/e7.json drifted from the canonical E7 config: %+v", spec)
	}
	if len(spec.Workload.Patterns)*len(spec.Models)*len(spec.Workload.Rates) != 18 {
		t.Errorf("specs/e7.json should describe 18 cells: %+v", spec)
	}

	// smoke.json is small enough to run: identical tables at 1 and 8 workers.
	repA := mustRun(t, load("smoke.json", 1))
	repB := mustRun(t, load("smoke.json", 8))
	if repA.Table.CSV() != repB.Table.CSV() {
		t.Errorf("specs/smoke.json not worker-count invariant:\n%s\n%s", repA.Table.CSV(), repB.Table.CSV())
	}
	if len(repA.Cells) != 8 { // 2 patterns × 2 models × 2 rates
		t.Errorf("smoke spec produced %d cells, want 8", len(repA.Cells))
	}
}

// TestBuiltinRegistriesRejectDuplicates registers a colliding name against
// the real component registries and expects the panic that keeps the
// component namespace unambiguous.
func TestBuiltinRegistriesRejectDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("re-registering a built-in pattern should panic")
		}
	}()
	traffic.Patterns.Register(registry.Entry[traffic.PatternCtor]{Name: "uniform"})
}

// TestTimelineSpecValidation: churn-timeline mistakes must fail fast with
// actionable messages, and a valid timeline must survive defaulting (shape
// "point", until = warmup + window).
func TestTimelineSpecValidation(t *testing.T) {
	base := func() Spec {
		return Spec{
			Mesh:   Cube(6),
			Faults: FaultSpec{Inject: C("uniform"), Counts: []int{5}, Timeline: &TimelineSpec{MTTF: 20, MTTR: 50}},
			Measure: MeasureSpec{
				Kind: MeasureTraffic, Warmup: 10, Window: 90,
			},
			Trials: 1,
		}
	}

	sc := mustNew(t, base())
	tl := sc.Spec().Faults.Timeline
	if tl.Shape.Name != "point" || tl.Until != 100 {
		t.Fatalf("timeline defaults not applied: %+v", tl)
	}

	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"routing measure", func(s *Spec) { s.Measure.Kind = MeasureSuccess }, "churn timeline needs"},
		{"schedule under a routing measure", func(s *Spec) {
			s.Faults.Timeline = nil
			s.Faults.Schedule = []ScheduledFault{{At: 40, Inject: Component{Name: "uniform", Params: map[string]any{"count": 5}}}}
			s.Measure.Kind = MeasureSuccess
		}, "fault schedule needs"},
		{"schedule under the bench measure", func(s *Spec) {
			s.Faults.Timeline = nil
			s.Faults.Schedule = []ScheduledFault{{At: 40, Inject: Component{Name: "uniform", Params: map[string]any{"count": 5}}}}
			s.Measure.Kind = MeasureBench
		}, "fault schedule needs"},
		{"unknown shape", func(s *Spec) { s.Faults.Timeline.Shape = C("regoin") }, "did you mean"},
		{"negative mttf", func(s *Spec) { s.Faults.Timeline.MTTF = -1 }, "non-negative"},
		{"empty timeline", func(s *Spec) { s.Faults.Timeline.MTTF = 0 }, "empty"},
		{"bad fixed injector", func(s *Spec) {
			s.Faults.Timeline.Fixed = []FixedChurn{{At: 5, Inject: C("nope")}}
		}, "unknown fault injector"},
		{"until before start", func(s *Spec) {
			s.Faults.Timeline.Start = 200
			s.Faults.Timeline.Until = 100
		}, "must exceed"},
	}
	for _, tc := range cases {
		spec := base()
		tc.mutate(&spec)
		_, err := New(spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

// TestTimelineDefaultsUnderMeasureAlias: a spec naming the measure by alias
// ("e7" for traffic) must default its timeline exactly like the canonical
// name — shape "point", until = warmup + window.
func TestTimelineDefaultsUnderMeasureAlias(t *testing.T) {
	sc := mustNew(t, Spec{
		Mesh:    Cube(6),
		Faults:  FaultSpec{Inject: C("uniform"), Counts: []int{5}, Timeline: &TimelineSpec{MTTF: 20, MTTR: 50}},
		Measure: MeasureSpec{Kind: "e7", Warmup: 10, Window: 90},
		Trials:  1,
	})
	tl := sc.Spec().Faults.Timeline
	if tl.Shape.Name != "point" || tl.Until != 100 {
		t.Fatalf("timeline defaults not applied under measure alias: %+v", tl)
	}
	if sc.Spec().Measure.Kind != "e7" {
		t.Fatalf("the alias the user wrote must be preserved, got %q", sc.Spec().Measure.Kind)
	}
}

// TestLoadRejectsTrailingContent: a spec file is one JSON document; a
// concatenation of several dumped specs must error instead of silently
// running only the first.
func TestLoadRejectsTrailingContent(t *testing.T) {
	doc := `{"mesh": {"x": 6, "y": 6, "z": 6}, "trials": 1}`
	if _, err := Load(strings.NewReader(doc + "\n" + doc)); err == nil ||
		!strings.Contains(err.Error(), "trailing content") {
		t.Fatalf("two concatenated specs should be rejected, got %v", err)
	}
	if _, err := Load(strings.NewReader(doc + "\n\n  \n")); err != nil {
		t.Fatalf("trailing whitespace must stay legal: %v", err)
	}
}
