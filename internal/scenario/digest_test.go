package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"mccmesh/internal/mesh"
)

// TestCheckedInSpecDigests pins the digest of every checked-in spec. A
// failure here means the canonical dump format (or the spec itself) changed —
// which silently invalidates every `mcc serve` cache and every digest
// recorded in CI logs — so the change must be deliberate: update the spec of
// record and these constants together.
func TestCheckedInSpecDigests(t *testing.T) {
	want := map[string]string{
		"e1.json":    "c27e2d4874d52d75d91f904128e988aa073dfc2fc1edce8a0e749c7ce0e75dc9",
		"e2.json":    "4d9e30dab8099e92a634e00c5c534b4c7ea84601f0e62e4265edb1bd88e501eb",
		"e3.json":    "4b39198fbb2eb44797f1024db8738f6de5f039736704d023fd5f1b2d83c4f6ef",
		"e4.json":    "5a3f35b4e6aeb2be7426685e2f8b8ec708803bfd35a9b92d4b3039a2d8aebe24",
		"e5.json":    "6571ad29de5b812ee04655f55d98144e5667895084fe86402b0d5c07c2b0cee8",
		"e6.json":    "475a9812e3d102c3ad28da023ca3f7d0cd164eacaaeb5e0357df3e325769d691",
		"e7.json":    "8b97ad38a4487ab154bba61b6569345ec01ee528368097810c4d274c5e84ce3e",
		"churn.json": "d9844167b114667720d27a682d77f42c60203db94ef4e616d1a8e31504d3b106",
		"smoke.json": "ff23801c8abcd402c0d3e82c757bd4482ed2e78e8b22a4e1d837a8ebef12e788",
	}
	for file, digest := range want {
		if got := loadSpecFile(t, file).Digest(); got != digest {
			t.Errorf("%s: digest %s, want %s (canonical dump changed?)", file, got, digest)
		}
	}
}

func TestDigestIgnoresWorkers(t *testing.T) {
	a := tinySpec()
	b := tinySpec()
	b.SetWorkers(16)
	if a.Digest() != b.Digest() {
		t.Error("digests differ across worker counts: the cache would miss on an execution knob")
	}
	c := tinySpec()
	c.Seed++
	if a.Digest() == c.Digest() {
		t.Error("digest ignored a seed change")
	}
}

func TestDigestAppliesDefaults(t *testing.T) {
	// A sparse spec and its explicit normal form are the same experiment.
	sparse := Spec{Mesh: Cube(7)}
	full := sparse.withDefaults()
	if sparse.Digest() != full.Digest() {
		t.Error("defaults-filled spec digests differently from its sparse form")
	}
}

func TestTopoKeyCoversMeshAndFaultsOnly(t *testing.T) {
	a := tinySpec()

	b := tinySpec() // workload/measure/seed changes keep the topology shared
	b.Seed++
	b.Workload.Rates = []float64{0.5}
	b.Measure.Window = 999
	if a.TopoKey() != b.TopoKey() {
		t.Error("topo key varies with non-topology fields")
	}

	c := tinySpec()
	c.Mesh = Cube(9)
	if a.TopoKey() == c.TopoKey() {
		t.Error("topo key ignored the mesh extents")
	}

	d := tinySpec()
	d.Faults.Counts = []int{25}
	if a.TopoKey() == d.TopoKey() {
		t.Error("topo key ignored the fault counts")
	}
}

// TestRunCancellationIsDistinguishable pins the cancel contract `mcc serve`
// job control relies on: cancelling the context mid-run surfaces an error
// satisfying errors.Is(err, context.Canceled), the partial report marks the
// interrupted cell CANCELLED (not FAILED), and the completed prefix of the
// sweep survives in the report.
func TestRunCancellationIsDistinguishable(t *testing.T) {
	spec := tinySpec() // 4 cells
	ctx, cancel := context.WithCancel(context.Background())
	sc, err := New(spec, WithObserver(func(ev Event) {
		if !ev.Done && ev.Cell == 1 {
			cancel() // cancel as the second cell starts
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Run(ctx)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(err, context.Canceled)", err)
	}
	if rep == nil {
		t.Fatal("cancelled run returned no partial report")
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("partial report has %d cells, want 2 (completed prefix + cancelled cell)", len(rep.Cells))
	}
	if rep.Cells[0].Err != "" {
		t.Errorf("completed cell carries error %q", rep.Cells[0].Err)
	}
	last := rep.Cells[1]
	if !strings.Contains(last.Err, "context canceled") {
		t.Errorf("interrupted cell error = %q, want a context-canceled message", last.Err)
	}
	for _, cell := range rep.Cells {
		for _, f := range cell.Row {
			if strings.HasPrefix(f, "FAILED") {
				t.Errorf("cancellation rendered as FAILED: %v", cell.Row)
			}
		}
	}
	if !strings.HasPrefix(last.Row[3], "CANCELLED") {
		t.Errorf("interrupted cell row = %v, want CANCELLED marker", last.Row)
	}
}

// TestConcurrentRunsOverSharedTopology is the re-entrancy gate behind the
// `mcc serve` topology pool: many scenarios running concurrently, all drawing
// trial meshes as Clones of one shared immutable prototype, must produce
// reports bit-identical to isolated sequential runs. `go test -race` proves
// the sharing is sound.
func TestConcurrentRunsOverSharedTopology(t *testing.T) {
	const n = 8
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = tinySpec()
		specs[i].Seed = uint64(100 + i) // distinct experiments, same topology
		specs[i].SetWorkers(2)          // parallel trials inside each run too
	}

	// Sequential reference: each spec run in isolation, building its own mesh.
	want := make([]string, n)
	for i, spec := range specs {
		sc, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sc.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		cells, _ := json.Marshal(rep.Cells)
		want[i] = rep.Table.CSV() + string(cells)
	}

	// Concurrent: one fault-free prototype, every trial of every run clones it.
	proto := specs[0].Mesh.New()
	var wg sync.WaitGroup
	got := make([]string, n)
	errs := make([]error, n)
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc, err := New(specs[i], WithMeshSource(func() *mesh.Mesh { return proto.Clone() }))
			if err != nil {
				errs[i] = err
				return
			}
			rep, err := sc.Run(context.Background())
			if err != nil {
				errs[i] = err
				return
			}
			cells, _ := json.Marshal(rep.Cells)
			got[i] = rep.Table.CSV() + string(cells)
		}(i)
	}
	wg.Wait()
	for i := range specs {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("run %d over shared topology diverged from its isolated run:\n--- shared\n%s\n--- isolated\n%s",
				i, got[i], want[i])
		}
	}
}

// TestMeshSourceFeedsTrials pins that an installed mesh source is actually
// what trials consume (a broken seam would silently fall back to spec.Mesh.New
// and the topology pool would share nothing).
func TestMeshSourceFeedsTrials(t *testing.T) {
	spec := tinySpec()
	proto := spec.Mesh.New()
	var mu sync.Mutex
	calls := 0
	sc, err := New(spec, WithMeshSource(func() *mesh.Mesh {
		mu.Lock()
		calls++
		mu.Unlock()
		return proto.Clone()
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantMin := spec.Trials * 4 // 4 cells, one mesh per trial
	if calls < wantMin {
		t.Errorf("mesh source called %d times, want >= %d", calls, wantMin)
	}
}
