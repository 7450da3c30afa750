package traffic

import (
	"testing"

	"mccmesh/internal/core"
	"mccmesh/internal/mesh"
	"mccmesh/internal/telemetry"
)

// TestModelNameIsRegisteredName: every registered information model names
// itself by the name it was built from, and the built-ins carry the
// incremental-update and telemetry hooks the engine looks for.
func TestModelNameIsRegisteredName(t *testing.T) {
	for _, name := range ModelNames() {
		t.Run(name, func(t *testing.T) {
			im, err := BuildModel(name, core.NewModel(mesh.NewCube(4)), nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := im.Name(); got != name {
				t.Errorf("BuildModel(%q).Name() = %q", name, got)
			}
			if _, ok := im.(FaultApplier); !ok {
				t.Error("not a FaultApplier")
			}
			if _, ok := im.(FaultRepairer); !ok {
				t.Error("not a FaultRepairer")
			}
			if _, ok := im.(telemetry.Instrumentable); !ok {
				t.Error("not telemetry.Instrumentable")
			}
		})
	}
}
