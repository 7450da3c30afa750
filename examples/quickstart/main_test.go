package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutputGolden pins the example's output byte for byte. Regenerate with
//
//	go run ./examples/quickstart > examples/quickstart/testdata/output.golden
func TestOutputGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if out.String() != string(golden) {
		t.Errorf("output drifted from the golden:\n--- got\n%s--- want\n%s", out.String(), golden)
	}
}
