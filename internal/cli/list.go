package cli

import (
	"flag"
	"fmt"

	"mccmesh/internal/fault"
	"mccmesh/internal/registry"
	"mccmesh/internal/scenario"
	"mccmesh/internal/traffic"
)

// cmdList prints every registered component family — traffic patterns,
// information models, fault injectors and measures — with docs, aliases and
// parameter schemas, so spec authors never have to read source to discover a
// knob. With -spec it instead describes one spec file: its identity digest
// (the `mcc serve` cache key), topology key and measure.
func cmdList(args []string) int {
	fs := flag.NewFlagSet("mcc list", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "describe this spec file (digest, topology key, measure) instead of the registries")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *specPath != "" {
		return listSpec(*specPath)
	}
	printFamily(traffic.Patterns, "workload.patterns")
	printFamily(traffic.Models, "model")
	printFamily(fault.Injectors, "faults.inject")
	printFamily(scenario.Measures, "measure.kind")
	return 0
}

// listSpec prints one spec file's identity: the canonical digest that keys
// the `mcc serve` result cache (and tags every submitted job), the topology
// key that selects its shared-topology prototype, and the headline fields.
func listSpec(path string) int {
	sc, err := loadSpec(path)
	if err != nil {
		return fail("list", err)
	}
	spec := sc.Spec()
	name := spec.Name
	if name == "" {
		name = "-"
	}
	fmt.Fprintf(stdout, "spec:    %s\n", path)
	fmt.Fprintf(stdout, "name:    %s\n", name)
	fmt.Fprintf(stdout, "digest:  %s\n", sc.Digest())
	fmt.Fprintf(stdout, "topo:    %s\n", spec.TopoKey())
	fmt.Fprintf(stdout, "measure: %s\n", spec.Measure.Kind)
	fmt.Fprintf(stdout, "mesh:    %s\n", spec.Mesh.New().Dims())
	fmt.Fprintf(stdout, "trials:  %d (seed %d)\n", spec.Trials, spec.Seed)
	// The resolved execution block (digest-excluded).
	fmt.Fprintf(stdout, "exec:    workers=%d shards=%d timeout=%gs\n",
		spec.WorkerCount(), spec.ShardCount(), spec.TimeoutSeconds())
	return 0
}

// printFamily renders one registry with its spec-file location.
func printFamily[T any](r *registry.Registry[T], specField string) {
	fmt.Fprintf(stdout, "%ss (spec field %q):\n", r.Family(), specField)
	for _, e := range r.Entries() {
		alias := ""
		if len(e.Aliases) > 0 {
			alias = fmt.Sprintf(" (alias: %v)", e.Aliases)
		}
		fmt.Fprintf(stdout, "  %-12s %s%s\n", e.Name, e.Doc, alias)
		for _, p := range e.Params {
			def := ""
			if p.Default != nil {
				def = fmt.Sprintf(" (default %v)", p.Default)
			}
			fmt.Fprintf(stdout, "    · %s <%s>: %s%s\n", p.Name, p.Kind, p.Doc, def)
		}
	}
	fmt.Fprintln(stdout)
}
