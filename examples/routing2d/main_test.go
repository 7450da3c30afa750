package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutputGolden pins the example's output byte for byte, including every
// protocol message and hop count it prints. Regenerate with
//
//	go run ./examples/routing2d > examples/routing2d/testdata/output.golden
func TestOutputGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	run(&out)
	if out.String() != string(golden) {
		t.Errorf("output drifted from the golden:\n--- got\n%s--- want\n%s", out.String(), golden)
	}
}
