// Command mcc is the consolidated CLI of the workbench: one binary whose
// subcommands share one declarative scenario spec format. See `mcc help` and
// the README's "Scenario files" section.
//
// Examples:
//
//	mcc run -spec specs/e1.json              # evaluation table E1 (e1..e7)
//	mcc run -spec specs/smoke.json -workers 8
//	mcc run -measure absorption -dim 10 -faults 10,50,100 -dump-spec > my.json
//	mcc bench -json BENCH_new.json -baseline BENCH_traffic.json
//	mcc list
package main

import (
	"os"

	"mccmesh/internal/cli"
)

func main() { os.Exit(cli.Main(os.Args[1:])) }
