package scenario

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"mccmesh/internal/block"
	"mccmesh/internal/core"
	"mccmesh/internal/fault"
	"mccmesh/internal/feasibility"
	"mccmesh/internal/grid"
	"mccmesh/internal/labeling"
	"mccmesh/internal/mesh"
	"mccmesh/internal/minimal"
	"mccmesh/internal/protocol"
	"mccmesh/internal/region"
	"mccmesh/internal/registry"
	"mccmesh/internal/rng"
	"mccmesh/internal/routing"
	"mccmesh/internal/simnet"
	"mccmesh/internal/stats"
	"mccmesh/internal/traffic"
)

// Canonical measure names (the Measures registry accepts aliases too).
const (
	MeasureAbsorption = "absorption"
	MeasureSuccess    = "success"
	MeasureDistance   = "distance"
	MeasureOverhead   = "overhead"
	MeasureAblation   = "ablation"
	MeasureAdaptivity = "adaptivity"
	MeasureTraffic    = "traffic"
)

// MeasureFn runs one measurement over a validated scenario and returns the
// report body (Spec and Measure are filled in by Run).
type MeasureFn func(ctx context.Context, sc *Scenario) (*Report, error)

// Measures is the measurement registry. Each entry maps one experiment of the
// evaluation harness; third-party measures register the same way:
//
//	scenario.Measures.Register(registry.Entry[scenario.MeasureFn]{Name: "mine", New: ...})
var Measures = registry.New[MeasureFn]("measure")

func init() {
	Measures.Register(registry.Entry[MeasureFn]{
		Name: MeasureAbsorption, Aliases: []string{"e1"},
		Doc: "E1: healthy nodes absorbed by fault regions, MCC vs RFB",
		New: measureAbsorption,
	})
	Measures.Register(registry.Entry[MeasureFn]{
		Name: MeasureSuccess, Aliases: []string{"e2"},
		Doc: "E2: minimal-routing success rate per information model",
		New: measureSuccess,
	})
	Measures.Register(registry.Entry[MeasureFn]{
		Name: MeasureDistance, Aliases: []string{"e3"},
		Doc: "E3: success rate vs source–destination distance",
		New: measureDistance,
	})
	Measures.Register(registry.Entry[MeasureFn]{
		Name: MeasureOverhead, Aliases: []string{"e4"},
		Doc: "E4: messages used by the distributed information model",
		New: measureOverhead,
	})
	Measures.Register(registry.Entry[MeasureFn]{
		Name: MeasureAblation, Aliases: []string{"e5"},
		Doc: "E5: region sizes per model variant and border policy",
		New: measureAblation,
	})
	Measures.Register(registry.Entry[MeasureFn]{
		Name: MeasureAdaptivity, Aliases: []string{"e6"},
		Doc: "E6: routing flexibility left by each information model",
		New: measureAdaptivity,
	})
	Measures.Register(registry.Entry[MeasureFn]{
		Name: MeasureTraffic, Aliases: []string{"e7"},
		Doc: "E7: continuous-traffic throughput/latency per pattern, model and rate",
		New: measureTraffic,
	})
}

// samplePair draws a healthy source/destination pair with the configured
// minimum distance whose endpoints are safe under the pair's labelling.
func samplePair(r *rng.Rand, m *mesh.Mesh, minDist int) (grid.Point, grid.Point, *labeling.Labeling, bool) {
	for attempt := 0; attempt < 500; attempt++ {
		s := m.Point(r.Intn(m.NodeCount()))
		d := m.Point(r.Intn(m.NodeCount()))
		if grid.Manhattan(s, d) < minDist || m.IsFaulty(s) || m.IsFaulty(d) {
			continue
		}
		l := labeling.Compute(m, grid.OrientationOf(s, d))
		if l.Safe(s) && l.Safe(d) {
			return s, d, l, true
		}
	}
	return grid.Point{}, grid.Point{}, nil, false
}

// injectorFor resolves the static injector for a cell; validation already
// proved it constructible, so a failure here is a programming error.
func (sc *Scenario) injectorFor(n int) fault.Injector {
	inj, err := sc.spec.Faults.Injector(n)
	if err != nil {
		panic(err)
	}
	return inj
}

// firstCount returns the single fault count used by the fixed-count measures
// (distance, adaptivity, traffic).
func (sc *Scenario) firstCount() int {
	if len(sc.spec.Faults.Counts) == 0 {
		return 0
	}
	return sc.spec.Faults.Counts[0]
}

// faultLabel renders the fault workload of a cell for titles and row labels:
// the count, or the injector itself when its fault count is not statically
// known (count-free injectors like rate and block).
func (sc *Scenario) faultLabel(n int) string {
	if sc.spec.Faults.CountFree() {
		return sc.spec.Faults.Inject.String()
	}
	return fmt.Sprintf("%d", n)
}

// measureAbsorption is experiment E1: the average number of non-faulty nodes
// included in fault regions, comparing the MCC model against the two
// rectangular-faulty-block baselines.
func measureAbsorption(ctx context.Context, sc *Scenario) (*Report, error) {
	spec := sc.spec
	t := &stats.Table{
		Title:   fmt.Sprintf("E1: healthy nodes absorbed by fault regions (%s mesh, %s faults, %d trials)", spec.Mesh, spec.Faults.Inject.Name, spec.Trials),
		Columns: []string{"faults", "fault %", "MCC", "MCC regions", "RFB (bbox)", "FB (rule)", "MCC/RFB ratio"},
	}
	rep := &Report{Table: t}
	r := rng.New(spec.Seed)
	for i, n := range spec.Faults.Counts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sc.emit(Event{Cell: i, Total: len(spec.Faults.Counts), Label: "faults=" + sc.faultLabel(n)})
		var mcc, mccRegions, rfb, rule stats.Summary
		for trial := 0; trial < spec.Trials; trial++ {
			m := sc.newMesh()
			sc.injectorFor(n).Inject(m, r)
			l := labeling.Compute(m, grid.PositiveOrientation)
			cs := region.FindMCCs(l)
			mcc.Add(float64(cs.TotalNonFaulty()))
			mccRegions.Add(float64(cs.Len()))
			rfb.Add(float64(block.Build(m, block.BoundingBox).TotalNonFaulty()))
			rule.Add(float64(block.Build(m, block.ConvexityRule).TotalNonFaulty()))
		}
		ratio := 0.0
		if rfb.Mean() > 0 {
			ratio = mcc.Mean() / rfb.Mean()
		}
		faultPct := "n/a" // a count-free injector's fault share is not known statically
		if !spec.Faults.CountFree() {
			faultPct = stats.Pct(float64(n) / float64(spec.Mesh.NodeCount()))
		}
		row := []string{
			sc.faultLabel(n),
			faultPct,
			stats.F(mcc.Mean()),
			stats.F(mccRegions.Mean()),
			stats.F(rfb.Mean()),
			stats.F(rule.Mean()),
			stats.F(ratio),
		}
		t.AddRow(row...)
		rep.Cells = append(rep.Cells, Cell{
			Index: i, Faults: n, Row: row,
			Values: map[string]float64{
				"mcc": mcc.Mean(), "mcc_regions": mccRegions.Mean(),
				"rfb": rfb.Mean(), "fb_rule": rule.Mean(), "ratio": ratio,
			},
		})
		sc.emit(Event{Cell: i, Total: len(spec.Faults.Counts), Label: "faults=" + sc.faultLabel(n), Done: true, Row: row})
	}
	t.AddNote("MCC counts useless + can't-reach nodes for the (+X,+Y,+Z) orientation; the paper's claim is MCC ≪ RFB.")
	return rep, nil
}

// measureSuccess is experiment E2: the percentage of source/destination pairs
// for which a minimal path can be routed, per information model.
func measureSuccess(ctx context.Context, sc *Scenario) (*Report, error) {
	spec := sc.spec
	t := &stats.Table{
		Title: fmt.Sprintf("E2: minimal-routing success rate (%s mesh, %s faults, %d trials x %d pairs)",
			spec.Mesh, spec.Faults.Inject.Name, spec.Trials, spec.Measure.Pairs),
		Columns: []string{"faults", "MCC model", "RFB (bbox)", "FB (rule)", "labels only", "local greedy", "optimal"},
	}
	rep := &Report{Table: t}
	r := rng.New(spec.Seed)
	for i, n := range spec.Faults.Counts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sc.emit(Event{Cell: i, Total: len(spec.Faults.Counts), Label: "faults=" + sc.faultLabel(n)})
		var mcc, rfb, rule, labelsOnly, greedy, optimal stats.Summary
		for trial := 0; trial < spec.Trials; trial++ {
			m := sc.newMesh()
			sc.injectorFor(n).Inject(m, r)
			bb := block.Build(m, block.BoundingBox)
			cr := block.Build(m, block.ConvexityRule)
			for pair := 0; pair < spec.Measure.Pairs; pair++ {
				s, d, l, ok := samplePair(r, m, spec.Measure.MinDistance)
				if !ok {
					continue
				}
				cs := region.FindMCCs(l)
				feasible := feasibility.GroundTruth(cs, s, d)
				optimal.AddBool(feasible)

				// MCC model: feasibility check + routing (Algorithm 6).
				if feasibility.Theorem(cs, s, d) {
					tr := routing.New(m, &routing.MCC{Set: cs}, nil).Route(s, d)
					mcc.AddBool(tr.Succeeded())
				} else {
					mcc.AddBool(false)
				}

				// Rectangular faulty-block baselines: succeed when the block
				// regions leave a monotone path open.
				rfb.AddBool(!bb.Contains(s) && !bb.Contains(d) && !bb.BlockedByUnion(s, d))
				rule.AddBool(!cr.Contains(s) && !cr.Contains(d) && !cr.BlockedByUnion(s, d))

				// Labels only: avoid unsafe nodes with no region reasoning.
				labelsOnly.AddBool(routing.New(m, &routing.Labeled{Labeling: l}, nil).Route(s, d).Succeeded())

				// Local greedy floor baseline.
				greedy.AddBool(routing.New(m, routing.LocalGreedy{}, nil).Route(s, d).Succeeded())
			}
		}
		row := []string{
			sc.faultLabel(n),
			stats.Pct(mcc.Mean()),
			stats.Pct(rfb.Mean()),
			stats.Pct(rule.Mean()),
			stats.Pct(labelsOnly.Mean()),
			stats.Pct(greedy.Mean()),
			stats.Pct(optimal.Mean()),
		}
		t.AddRow(row...)
		rep.Cells = append(rep.Cells, Cell{
			Index: i, Faults: n, Row: row,
			Values: map[string]float64{
				"mcc": mcc.Mean(), "rfb": rfb.Mean(), "fb_rule": rule.Mean(),
				"labels": labelsOnly.Mean(), "local": greedy.Mean(), "optimal": optimal.Mean(),
			},
		})
		sc.emit(Event{Cell: i, Total: len(spec.Faults.Counts), Label: "faults=" + sc.faultLabel(n), Done: true, Row: row})
	}
	t.AddNote("'optimal' is the fraction of pairs with any minimal fault-free path; the MCC model is expected to match it.")
	return rep, nil
}

// measureDistance is experiment E3: how the success rate degrades with the
// source/destination distance at a fixed fault count.
func measureDistance(ctx context.Context, sc *Scenario) (*Report, error) {
	spec := sc.spec
	faults := sc.firstCount()
	t := &stats.Table{
		Title:   fmt.Sprintf("E3: success rate vs distance (%s mesh, %s faults)", spec.Mesh, sc.faultLabel(faults)),
		Columns: []string{"distance bucket", "pairs", "MCC model", "RFB (bbox)", "local greedy"},
	}
	rep := &Report{Table: t}
	sc.emit(Event{Cell: 0, Total: 1, Label: "faults=" + sc.faultLabel(faults)})
	r := rng.New(spec.Seed)
	diameter := sc.newMesh().Diameter()
	buckets := 4
	// The measure spans all distances, so the pair filter is only a floor:
	// at least 2 so a zero-distance pair can never produce a negative bucket.
	minDist := spec.Measure.MinDistance
	if minDist < 2 {
		minDist = 2
	}
	type acc struct{ mcc, rfb, greedy stats.Summary }
	accs := make([]acc, buckets)
	for trial := 0; trial < spec.Trials*spec.Measure.Pairs; trial++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m := sc.newMesh()
		sc.injectorFor(faults).Inject(m, r)
		bb := block.Build(m, block.BoundingBox)
		s, d, l, ok := samplePair(r, m, minDist)
		if !ok {
			continue
		}
		dist := grid.Manhattan(s, d)
		bucket := (dist - 1) * buckets / diameter
		if bucket >= buckets {
			bucket = buckets - 1
		}
		cs := region.FindMCCs(l)
		accs[bucket].mcc.AddBool(feasibility.Theorem(cs, s, d))
		accs[bucket].rfb.AddBool(!bb.Contains(s) && !bb.Contains(d) && !bb.BlockedByUnion(s, d))
		accs[bucket].greedy.AddBool(routing.New(m, routing.LocalGreedy{}, nil).Route(s, d).Succeeded())
	}
	for i := range accs {
		lo := i*diameter/buckets + 1
		hi := (i + 1) * diameter / buckets
		cell := func(s *stats.Summary) string {
			if s.N() == 0 {
				return "n/a"
			}
			return stats.Pct(s.Mean())
		}
		row := []string{
			fmt.Sprintf("%d-%d", lo, hi),
			fmt.Sprintf("%d", accs[i].mcc.N()),
			cell(&accs[i].mcc),
			cell(&accs[i].rfb),
			cell(&accs[i].greedy),
		}
		t.AddRow(row...)
		rep.Cells = append(rep.Cells, Cell{Index: i, Faults: faults, Row: row})
	}
	sc.emit(Event{Cell: 0, Total: 1, Label: "faults=" + sc.faultLabel(faults), Done: true})
	return rep, nil
}

// measureOverhead is experiment E4: the number of messages the distributed
// information model exchanges.
func measureOverhead(ctx context.Context, sc *Scenario) (*Report, error) {
	spec := sc.spec
	t := &stats.Table{
		Title:   fmt.Sprintf("E4: information-model message overhead (%s mesh, %d trials)", spec.Mesh, spec.Trials),
		Columns: []string{"faults", "label msgs", "identify msgs", "boundary msgs", "detect msgs/pair", "info nodes"},
	}
	rep := &Report{Table: t}
	r := rng.New(spec.Seed)
	for i, n := range spec.Faults.Counts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sc.emit(Event{Cell: i, Total: len(spec.Faults.Counts), Label: "faults=" + sc.faultLabel(n)})
		var label, ident, bound, detect, coverage stats.Summary
		for trial := 0; trial < spec.Trials; trial++ {
			m := sc.newMesh()
			sc.injectorFor(n).Inject(m, r)
			orient := grid.PositiveOrientation
			lr := protocol.RunLabeling(m, orient)
			label.Add(float64(lr.Stats.ByKind[protocol.KindLabel]))

			l := labeling.Compute(m, orient)
			cs := region.FindMCCs(l)
			info := protocol.RunInformationModel(m, l, cs)
			ident.Add(float64(info.IdentifyMessages))
			bound.Add(float64(info.BoundaryMessages))
			coverage.Add(float64(len(info.Records)))

			s, d, lab, ok := samplePair(r, m, spec.Measure.MinDistance)
			if !ok {
				continue
			}
			var det *protocol.DetectionResult
			if m.Is2D() {
				det = protocol.RunDetection2D(m, lab, s, d)
			} else {
				det = protocol.RunDetection3D(m, lab, s, d)
			}
			detect.Add(float64(det.ForwardHops + det.ReplyHops))
		}
		row := []string{
			sc.faultLabel(n),
			stats.F(label.Mean()),
			stats.F(ident.Mean()),
			stats.F(bound.Mean()),
			stats.F(detect.Mean()),
			stats.F(coverage.Mean()),
		}
		t.AddRow(row...)
		rep.Cells = append(rep.Cells, Cell{
			Index: i, Faults: n, Row: row,
			Values: map[string]float64{
				"label_msgs": label.Mean(), "identify_msgs": ident.Mean(),
				"boundary_msgs": bound.Mean(), "detect_msgs": detect.Mean(), "info_nodes": coverage.Mean(),
			},
		})
		sc.emit(Event{Cell: i, Total: len(spec.Faults.Counts), Label: "faults=" + sc.faultLabel(n), Done: true, Row: row})
	}
	t.AddNote("'info nodes' is the number of nodes holding at least one MCC record after boundary construction.")
	return rep, nil
}

// measureAblation is experiment E5: region sizes per border policy and block
// variant, and how often a single MCC explains an infeasible pair.
func measureAblation(ctx context.Context, sc *Scenario) (*Report, error) {
	spec := sc.spec
	t := &stats.Table{
		Title:   fmt.Sprintf("E5: region-size ablation (%s mesh, %d trials)", spec.Mesh, spec.Trials),
		Columns: []string{"faults", "MCC border-safe", "MCC border-blocked", "RFB (bbox)", "FB (rule)", "single-MCC infeasibility"},
	}
	rep := &Report{Table: t}
	r := rng.New(spec.Seed)
	for i, n := range spec.Faults.Counts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sc.emit(Event{Cell: i, Total: len(spec.Faults.Counts), Label: "faults=" + sc.faultLabel(n)})
		var safe, blocked, rfb, rule, single stats.Summary
		for trial := 0; trial < spec.Trials; trial++ {
			m := sc.newMesh()
			sc.injectorFor(n).Inject(m, r)
			lSafe := labeling.Compute(m, grid.PositiveOrientation)
			lBlocked := labeling.Compute(m, grid.PositiveOrientation, labeling.Options{Border: labeling.BorderBlocked})
			safe.Add(float64(lSafe.NonFaultyUnsafeCount()))
			blocked.Add(float64(lBlocked.NonFaultyUnsafeCount()))
			rfb.Add(float64(block.Build(m, block.BoundingBox).TotalNonFaulty()))
			rule.Add(float64(block.Build(m, block.ConvexityRule).TotalNonFaulty()))

			s, d, l, ok := samplePair(r, m, spec.Measure.MinDistance)
			if !ok {
				continue
			}
			cs := region.FindMCCs(l)
			if !feasibility.GroundTruth(cs, s, d) {
				single.AddBool(feasibility.SingleMCCExplains(cs, s, d))
			}
		}
		singleCell := "n/a"
		if single.N() > 0 {
			singleCell = stats.Pct(single.Mean())
		}
		row := []string{
			sc.faultLabel(n),
			stats.F(safe.Mean()),
			stats.F(blocked.Mean()),
			stats.F(rfb.Mean()),
			stats.F(rule.Mean()),
			singleCell,
		}
		t.AddRow(row...)
		rep.Cells = append(rep.Cells, Cell{Index: i, Faults: n, Row: row})
		sc.emit(Event{Cell: i, Total: len(spec.Faults.Counts), Label: "faults=" + sc.faultLabel(n), Done: true, Row: row})
	}
	t.AddNote("'single-MCC infeasibility' = among infeasible pairs, how often one MCC alone blocks (the rest need merged boundary information); n/a when no infeasible pair was sampled.")
	t.AddNote("border-blocked treats missing neighbours as faults; the far corner then satisfies the useless rule vacuously and the labels cascade across the mesh, which is exactly why the paper's definition (border-safe) is used everywhere else.")
	return rep, nil
}

// measureAdaptivity is experiment E6: the routing flexibility each
// information model preserves.
func measureAdaptivity(ctx context.Context, sc *Scenario) (*Report, error) {
	spec := sc.spec
	faults := sc.firstCount()
	t := &stats.Table{
		Title:   fmt.Sprintf("E6: routing adaptivity (%s mesh, %s faults)", spec.Mesh, sc.faultLabel(faults)),
		Columns: []string{"metric", "fault-free", "MCC model", "RFB (bbox)"},
	}
	rep := &Report{Table: t}
	sc.emit(Event{Cell: 0, Total: 1, Label: "faults=" + sc.faultLabel(faults)})
	r := rng.New(spec.Seed)
	const pathCap = 1_000_000
	var freePaths, mccPaths, rfbPaths, mccMinCand stats.Summary
	for trial := 0; trial < spec.Trials*spec.Measure.Pairs; trial++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m := sc.newMesh()
		sc.injectorFor(faults).Inject(m, r)
		s, d, l, ok := samplePair(r, m, spec.Measure.MinDistance)
		if !ok {
			continue
		}
		cs := region.FindMCCs(l)
		if !feasibility.Theorem(cs, s, d) {
			continue
		}
		bb := block.Build(m, block.BoundingBox)
		freePaths.Add(float64(minimal.CountPaths(m, nil, s, d, pathCap)))
		mccPaths.Add(float64(minimal.CountPaths(m, l.UnsafeWords(), s, d, pathCap)))
		rfbPaths.Add(float64(minimal.CountPaths(m, bb.AvoidWords(), s, d, pathCap)))
		tr := routing.New(m, &routing.MCC{Set: cs}, nil).Route(s, d)
		if tr.Succeeded() {
			mccMinCand.Add(float64(tr.MinAdaptivity()))
		}
	}
	rows := [][]string{
		{"distinct minimal paths (mean, capped)", stats.F(freePaths.Mean()), stats.F(mccPaths.Mean()), stats.F(rfbPaths.Mean())},
		{"pairs measured", fmt.Sprintf("%d", freePaths.N()), fmt.Sprintf("%d", mccPaths.N()), fmt.Sprintf("%d", rfbPaths.N())},
		{"min forwarding candidates on MCC route", "-", stats.F(mccMinCand.Mean()), "-"},
	}
	for i, row := range rows {
		t.AddRow(row...)
		rep.Cells = append(rep.Cells, Cell{Index: i, Faults: faults, Row: row})
	}
	t.AddNote("path counts are capped at 1e6; the MCC column keeps more minimal paths alive than the RFB column.")
	sc.emit(Event{Cell: 0, Total: 1, Label: "faults=" + sc.faultLabel(faults), Done: true})
	return rep, nil
}

// trafficEngine builds one traffic trial of a cell: a fresh mesh with the
// trial's static faults injected, the model and pattern built by name over
// it, and an engine taking its timing and shard count from the spec. Its
// ShardModel rebuilds the model over the same mesh, once per shard when the
// trial splits. opts supplies the cell's rate and the per-measure options.
func (sc *Scenario) trafficEngine(model, pattern Component, injector fault.Injector, seed uint64, opts traffic.Options) (*traffic.Engine, error) {
	m := sc.newMesh()
	injector.Inject(m, rng.New(rng.Derive(seed, 1<<48)))
	im, err := traffic.BuildModel(model.Name, core.NewModel(m), model.Args())
	if err != nil {
		return nil, err
	}
	p, err := traffic.BuildPattern(pattern.Name, m, pattern.Args())
	if err != nil {
		return nil, err
	}
	ms := sc.spec.Measure
	opts.Warmup = simnet.Time(ms.Warmup)
	opts.Window = simnet.Time(ms.Window)
	opts.LinkDelay = simnet.Time(ms.LinkDelay)
	opts.MaxEvents = ms.MaxEvents
	opts.Shards = sc.spec.ShardCount()
	opts.ShardModel = func() (traffic.InfoModel, error) {
		return traffic.BuildModel(model.Name, core.NewModel(m), model.Args())
	}
	return traffic.NewEngine(m, im, p, opts), nil
}

// measureTraffic is experiment E7: sustained-load throughput, delivery ratio
// and latency percentiles for every pattern × information model × injection
// rate cell. Trials are sharded across parallel workers with per-trial
// derived seeds, so the same spec produces the same table at any worker
// count.
func measureTraffic(ctx context.Context, sc *Scenario) (*Report, error) {
	spec := sc.spec
	faults := sc.firstCount()
	timeline, err := spec.Faults.Timeline.Build()
	if err != nil {
		return nil, err // unreachable after Validate; kept for direct callers
	}
	title := fmt.Sprintf("E7: continuous-traffic throughput/latency (%s mesh, %s faults, %d trials, warmup %d + window %d ticks)",
		spec.Mesh, sc.faultLabel(faults), spec.Trials, spec.Measure.Warmup, spec.Measure.Window)
	columns := []string{"pattern", "model", "rate", "delivered", "throughput", "lat mean", "p50", "p95", "p99", "stuck", "lost"}
	if timeline != nil {
		title = fmt.Sprintf("E7: continuous-traffic under churn (%s mesh, %s faults, mttf %g / mttr %g, %d trials, warmup %d + window %d ticks)",
			spec.Mesh, sc.faultLabel(faults), timeline.MTTF, timeline.MTTR, spec.Trials, spec.Measure.Warmup, spec.Measure.Window)
		columns = append(columns, "fail/rep", "phase tp", "phase lat")
	}
	t := &stats.Table{Title: title, Columns: columns}
	rep := &Report{Table: t}
	injector := sc.injectorFor(faults)
	schedule := make([]traffic.FaultEvent, len(spec.Faults.Schedule))
	for i, ev := range spec.Faults.Schedule {
		inj, err := fault.Build(ev.Inject.Name, ev.Inject.Args())
		if err != nil {
			return nil, err // unreachable after Validate; kept for direct callers
		}
		schedule[i] = traffic.FaultEvent{At: simnet.Time(ev.At), Inject: inj}
	}
	total := len(spec.Workload.Patterns) * len(spec.Models) * len(spec.Workload.Rates)
	cell := 0
	for _, pattern := range spec.Workload.Patterns {
		for _, model := range spec.Models {
			for _, rate := range spec.Workload.Rates {
				// No early return on an expired context here: the trial-level
				// check below observes it, the cell is marked CANCELLED /
				// TIMEOUT, and the completed prefix survives in the report —
				// even when the deadline beats the very first cell.
				label := fmt.Sprintf("%s/%s/%.3f", pattern.Name, model.Name, rate)
				sc.emit(Event{Cell: cell, Total: total, Label: label})
				cellSeed := rng.Derive(spec.Seed, uint64(cell))
				results := traffic.RunTrials(spec.WorkerCount(), spec.Trials, cellSeed, func(trial int, seed uint64) (res *traffic.Result) {
					// A panicking trial must fail its cell, not the process:
					// trial goroutines are outside any caller's recover, so the
					// boundary recover lives here. The captured stack rides
					// Result.Err into the FAILED cell row.
					defer func() {
						if p := recover(); p != nil {
							res = &traffic.Result{Err: fmt.Errorf("trial %d panicked: %v\n%s", trial, p, debug.Stack())}
						}
					}()
					// Cancellation is checked per trial, not only per cell, so
					// a job cancel lands within one trial's runtime; the
					// context error flows into Result.Err and is surfaced as a
					// distinguishable CANCELLED cell below.
					if err := ctx.Err(); err != nil {
						return &traffic.Result{Err: err}
					}
					e, err := sc.trafficEngine(model, pattern, injector, seed, traffic.Options{
						Rate:       rate,
						Faults:     schedule,
						Timeline:   timeline,
						Telemetry:  sc.telemetry,
						TraceEvery: sc.traceEvery,
						TraceCap:   sc.traceCap,
					})
					if err != nil {
						panic(err) // validated up front
					}
					return e.Run(seed)
				})
				agg := traffic.Collect(results)
				if sc.telemetry {
					// Per-trial Progress events stream in trial order after
					// the sharded trials complete, so the event stream is
					// identical at any worker count.
					for trial, r := range results {
						if r.Telemetry == nil {
							continue
						}
						sc.emit(Event{
							Cell: cell, Total: total, Label: label,
							Progress: true, Trial: trial, Counters: r.Telemetry.Snapshot(),
						})
						for _, tr := range r.Traces {
							rep.traces = append(rep.traces, TraceRecord{Cell: cell, Trial: trial, Trace: tr})
						}
					}
					if agg.Telemetry != nil {
						rep.Telemetry = append(rep.Telemetry, CellTelemetry{
							Cell: cell, Label: label, Counters: agg.Telemetry.Snapshot(),
						})
					}
				}
				if agg.Err != nil && (errors.Is(agg.Err, context.Canceled) || errors.Is(agg.Err, context.DeadlineExceeded)) {
					// The run was cancelled mid-cell. Mark the interrupted
					// cell distinguishably — Cell.Err carries the context
					// error, not a generic failure — and return the completed
					// prefix of the sweep with the context's error, so a job
					// runner reports "cancelled" (or "timeout" for an expired
					// deadline), never "failed".
					verdict := "CANCELLED"
					if errors.Is(agg.Err, context.DeadlineExceeded) {
						verdict = "TIMEOUT"
					}
					row := []string{
						pattern.Name, model.Name, fmt.Sprintf("%.3f", rate),
						fmt.Sprintf("%s: %v", verdict, agg.Err),
					}
					for len(row) < len(columns) {
						row = append(row, "-")
					}
					t.AddRow(row...)
					rep.Cells = append(rep.Cells, Cell{
						Index: cell, Pattern: pattern.Name, Model: model.Name, Rate: rate, Faults: faults, Row: row,
						Err: agg.Err.Error(),
					})
					sc.emit(Event{Cell: cell, Total: total, Label: label, Done: true, Row: row})
					return rep, agg.Err
				}
				if agg.Err != nil {
					// A trial aborted (event budget exhausted): fail this cell
					// visibly but keep the sweep alive — a runaway cell must
					// not cost the report its other cells, let alone the
					// process.
					row := []string{
						pattern.Name, model.Name, fmt.Sprintf("%.3f", rate),
						fmt.Sprintf("FAILED (%d/%d trials): %v", agg.Failed, agg.Trials, agg.Err),
						"-", "-", "-", "-", "-", "-", "-",
					}
					for len(row) < len(columns) {
						row = append(row, "-")
					}
					t.AddRow(row...)
					rep.Cells = append(rep.Cells, Cell{
						Index: cell, Pattern: pattern.Name, Model: model.Name, Rate: rate, Faults: faults, Row: row,
						Err: agg.Err.Error(),
					})
					sc.emit(Event{Cell: cell, Total: total, Label: label, Done: true, Row: row})
					cell++
					continue
				}
				row := []string{
					pattern.Name,
					model.Name,
					fmt.Sprintf("%.3f", rate),
					stats.Pct(agg.DeliveredRatio.Mean()),
					fmt.Sprintf("%.4f", agg.Throughput.Mean()),
					stats.F(agg.Latency.Mean()),
					fmt.Sprintf("%d", agg.Latency.Percentile(0.50)),
					fmt.Sprintf("%d", agg.Latency.Percentile(0.95)),
					fmt.Sprintf("%d", agg.Latency.Percentile(0.99)),
					fmt.Sprintf("%d", agg.Stuck),
					fmt.Sprintf("%d", agg.Lost),
				}
				values := map[string]float64{
					"delivered":  agg.DeliveredRatio.Mean(),
					"throughput": agg.Throughput.Mean(),
					"lat_mean":   agg.Latency.Mean(),
					"p50":        float64(agg.Latency.Percentile(0.50)),
					"p95":        float64(agg.Latency.Percentile(0.95)),
					"p99":        float64(agg.Latency.Percentile(0.99)),
					"stuck":      float64(agg.Stuck),
					"lost":       float64(agg.Lost),
				}
				if timeline != nil {
					// Per-phase resolution: the throughput/latency spread
					// across the inter-event phases of every trial shows the
					// degradation/recovery band, not just the window mean.
					row = append(row,
						fmt.Sprintf("%d/%d", agg.Failures, agg.Repairs),
						fmt.Sprintf("%.4f [%.4f..%.4f]", agg.PhaseThroughput.Mean(), agg.PhaseThroughput.Min(), agg.PhaseThroughput.Max()),
						fmt.Sprintf("%.1f [%.1f..%.1f]", agg.PhaseLatency.Mean(), agg.PhaseLatency.Min(), agg.PhaseLatency.Max()),
					)
					values["failures"] = float64(agg.Failures)
					values["repairs"] = float64(agg.Repairs)
					values["failed_nodes"] = float64(agg.FailedNodes)
					values["repaired_nodes"] = float64(agg.RepairedNodes)
					values["phase_tp_mean"] = agg.PhaseThroughput.Mean()
					values["phase_tp_min"] = agg.PhaseThroughput.Min()
					values["phase_tp_max"] = agg.PhaseThroughput.Max()
					values["phase_lat_mean"] = agg.PhaseLatency.Mean()
					values["phase_lat_min"] = agg.PhaseLatency.Min()
					values["phase_lat_max"] = agg.PhaseLatency.Max()
				}
				t.AddRow(row...)
				rep.Cells = append(rep.Cells, Cell{
					Index: cell, Pattern: pattern.Name, Model: model.Name, Rate: rate, Faults: faults, Row: row,
					Values: values,
				})
				sc.emit(Event{Cell: cell, Total: total, Label: label, Done: true, Row: row})
				cell++
			}
		}
	}
	t.AddNote("throughput is measured deliveries per healthy node per tick; latency percentiles are over packets injected inside the window.")
	t.AddNote("'stuck' packets ran out of allowed forwarding directions; 'lost' packets were dropped by a node that died mid-flight.")
	if timeline != nil {
		t.AddNote("'fail/rep' totals churn events across trials; 'phase tp'/'phase lat' give mean [min..max] over the inter-event phases of every trial.")
	}
	return rep, nil
}
