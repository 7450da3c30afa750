// Package cli implements the `mcc` command line: one binary, one scenario
// spec format, subcommands for every workflow that used to be a separate
// binary. Every run is reproducible from a checked-in JSON spec file: run
// and the inspectors load one (-spec file.json) and emit one (-dump-spec),
// and the evaluation tables E1–E7 are the files specs/e1.json…e7.json.
//
//	mcc run    — run a scenario (traffic sweep or any e1..e7 measure)
//	mcc bench  — the event-core benchmark behind BENCH_traffic.json
//	mcc sim    — one routing scenario end to end (mccsim)
//	mcc proto  — message costs of the distributed protocols (mccproto)
//	mcc viz    — ASCII rendering of fault configurations (mccviz)
//	mcc list   — registered patterns, models, injectors and measures
//	mcc serve  — scenario-execution daemon (HTTP jobs API, result cache)
//	mcc submit — send a spec to a daemon, stream progress, print the report
//	mcc jobs   — list a daemon's jobs
//
// The old binaries (mccbench, mccsim, mccproto, mcctraffic, mccviz) were
// two-line shims over this package for one release and have been removed.
package cli

import (
	"fmt"
	"io"
	"os"
)

// stdout and stderr are swappable for tests.
var (
	stdout io.Writer = os.Stdout
	stderr io.Writer = os.Stderr
)

// Main dispatches a full argument vector (without the program name) and
// returns the process exit code.
func Main(args []string) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "run":
		return cmdRun(rest)
	case "bench":
		return cmdBench(rest)
	case "sim":
		return cmdSim(rest)
	case "proto":
		return cmdProto(rest)
	case "viz":
		return cmdViz(rest)
	case "list":
		return cmdList(rest)
	case "serve":
		return cmdServe(rest)
	case "submit":
		return cmdSubmit(rest)
	case "jobs":
		return cmdJobs(rest)
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "mcc: unknown subcommand %q\n\n", cmd)
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `mcc — fault-tolerant mesh routing workbench (ICPP 2005 MCC model)

Usage:
  mcc <subcommand> [flags]

Subcommands:
  run     run a scenario: a traffic sweep or any measure, from flags or -spec
          (evaluation tables E1..E7: mcc run -spec specs/eN.json)
  bench   run the event-core benchmark and write BENCH_traffic.json (-json)
  sim     route one fault configuration end to end, model by model
  proto   message costs of the distributed protocols
  viz     render a fault configuration (and a route) as ASCII art
  list    list registered patterns, models, fault injectors and measures
  serve   run the scenario-execution daemon (HTTP API over the spec format)
  submit  send a spec to a running daemon and print its report
  jobs    list a running daemon's jobs

run, sim, proto and viz accept -spec file.json to load a declarative scenario
spec ("-" reads stdin) and -dump-spec to print the equivalent spec instead of
running. Run 'mcc <subcommand> -h' for flags.
`)
}

// fail prints a subcommand-scoped error and returns the exit code.
func fail(sub string, err error) int {
	fmt.Fprintf(stderr, "mcc %s: %v\n", sub, err)
	return 2
}
