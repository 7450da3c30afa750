package scenario

import (
	"context"
	"strings"
	"sync"
	"testing"

	"mccmesh/internal/core"
	"mccmesh/internal/grid"
	"mccmesh/internal/registry"
	"mccmesh/internal/routing"
	"mccmesh/internal/traffic"
)

// panickyModel constructs cleanly (Validate probes the ctor) but panics the
// moment the engine asks it to route — inside the trial worker goroutine, so
// it drives the per-trial recover boundary in measureTraffic exactly where a
// real model bug would land.
type panickyModel struct{}

func (panickyModel) Name() string { return "panicky" }
func (panickyModel) Provider(grid.Orientation) routing.Provider {
	panic("injected trial panic")
}
func (panickyModel) Invalidate() {}

var registerPanicky sync.Once

func panickySpec() Spec {
	registerPanicky.Do(func() {
		traffic.Models.Register(registry.Entry[traffic.ModelCtor]{
			Name: "panicky",
			Doc:  "test-only model that panics inside the trial worker",
			New: func(*core.Model, registry.Args) (traffic.InfoModel, error) {
				return panickyModel{}, nil
			},
		})
	})
	return Spec{
		Name:   "trial-panic-test",
		Mesh:   Cube(5),
		Faults: FaultSpec{Inject: C("uniform"), Counts: []int{4}},
		Models: ComponentsOf("mcc", "panicky"),
		Workload: WorkloadSpec{
			Patterns: ComponentsOf("uniform"),
			Rates:    []float64{0.02},
		},
		Measure: MeasureSpec{Kind: MeasureTraffic, Warmup: 5, Window: 30},
		Seed:    17,
		Trials:  2,
		Exec:    &ExecSpec{Workers: 2},
	}
}

// TestTrialPanicFailsCellNotProcess pins panic isolation at the trial
// boundary: a model that panics inside its trial goroutine costs its own cell
// (FAILED, with the panic and stack in the cell error) while the rest of the
// sweep — and the process — survive.
func TestTrialPanicFailsCellNotProcess(t *testing.T) {
	sc, err := New(panickySpec())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Run(context.Background())
	if err != nil {
		t.Fatalf("a trial panic must not fail the run: %v", err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("got %d cells, want 2 (one healthy, one failed)", len(rep.Cells))
	}
	healthy, failed := rep.Cells[0], rep.Cells[1]
	if healthy.Err != "" {
		t.Errorf("mcc cell failed: %s", healthy.Err)
	}
	if !strings.Contains(failed.Err, "panicked: injected trial panic") {
		t.Errorf("panicky cell error = %q, want the recovered panic", failed.Err)
	}
	if !strings.Contains(failed.Err, "goroutine") {
		t.Errorf("panicky cell error carries no stack:\n%s", failed.Err)
	}
	if !strings.Contains(strings.Join(failed.Row, " "), "FAILED") {
		t.Errorf("panicky cell row not marked FAILED: %v", failed.Row)
	}
}
