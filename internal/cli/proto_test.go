package cli

import (
	"os"
	"strings"
	"testing"
)

// TestProtoGolden pins `mcc proto` byte for byte: every message count, hop
// count and verdict of the distributed labelling, information model,
// detection and routing. The cases cover a sparse and a dense 3-D mesh (the
// dense one exchanges label messages) and a 2-D mesh with infeasible pairs.
// Regenerate a golden with
//
//	go run ./cmd/mcc proto <args> > internal/cli/testdata/<name>.golden
func TestProtoGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"proto_7x7x7_f10", []string{"-dims", "7x7x7", "-faults", "10", "-pairs", "3"}},
		{"proto_7x7x7_f70", []string{"-dims", "7x7x7", "-faults", "70", "-pairs", "4"}},
		{"proto_12x12_f40", []string{"-dims", "12x12", "-faults", "40", "-pairs", "5"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			golden, err := os.ReadFile("testdata/" + tc.name + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			code, out, errOut := capture(t, append([]string{"proto"}, tc.args...)...)
			if code != 0 {
				t.Fatalf("proto %s exited %d: %s", strings.Join(tc.args, " "), code, errOut)
			}
			if out != string(golden) {
				t.Errorf("proto %s drifted from the golden:\n--- got\n%s--- want\n%s", strings.Join(tc.args, " "), out, golden)
			}
		})
	}
}
