package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"mccmesh/internal/core"
	"mccmesh/internal/fault"
	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
	"mccmesh/internal/rng"
	"mccmesh/internal/scenario"
	"mccmesh/internal/simnet"
	"mccmesh/internal/telemetry"
	"mccmesh/internal/traffic"
)

// simWorkload is a simulation workload (churn32, static32) resolved from its
// spec file: one pattern × model × rate cell, run trial after trial.
type simWorkload struct {
	name     string
	spec     scenario.Spec
	model    scenario.Component
	pattern  scenario.Component
	rate     float64
	injector fault.Injector
	timeline *fault.Timeline
	// cellSeed is the seed scenario.Run would give the spec's only cell, so
	// trial i here is trial i of `mcc run -spec` with the same seed.
	cellSeed uint64
}

func loadSim(name string, seed uint64) (*simWorkload, error) {
	sc, _, err := loadSpec(name, seed)
	if err != nil {
		return nil, err
	}
	spec := sc.Spec()
	if len(spec.Models) != 1 || len(spec.Workload.Patterns) != 1 || len(spec.Workload.Rates) != 1 || len(spec.Faults.Counts) != 1 {
		return nil, fmt.Errorf("%s: want exactly one model, pattern, rate and fault count", name)
	}
	inj, err := spec.Faults.Injector(spec.Faults.Counts[0])
	if err != nil {
		return nil, err
	}
	tl, err := spec.Faults.Timeline.Build()
	if err != nil {
		return nil, err
	}
	return &simWorkload{
		name: name, spec: spec,
		model: spec.Models[0], pattern: spec.Workload.Patterns[0], rate: spec.Workload.Rates[0],
		injector: inj, timeline: tl,
		cellSeed: rng.Derive(spec.Seed, 0),
	}, nil
}

// trialSeed is the seed of trial i.
func (w *simWorkload) trialSeed(i int) uint64 { return rng.Derive(w.cellSeed, uint64(i)) }

// trial is one set-up trial: its mesh with the static faults placed, one
// fully built information model per routing instance (one, or one per shard)
// and the traffic pattern.
type trial struct {
	m       *mesh.Mesh
	models  []traffic.InfoModel
	pattern traffic.Pattern
	// meshS and coreS time the two set-up steps: mesh build plus fault
	// placement, and the model build for all orientations.
	meshS, coreS float64
}

func (t *trial) setupS() float64 { return t.meshS + t.coreS }

// setup builds a trial for seed with the given number of model instances.
// Every orientation's provider is requested up front, so the labellings and
// region sets are built here and not inside Engine.Run.
func (w *simWorkload) setup(seed uint64, instances int) (*trial, error) {
	start := time.Now()
	m := w.spec.Mesh.New()
	w.injector.Inject(m, rng.New(rng.Derive(seed, 1<<48)))
	meshDone := time.Now()
	models := make([]traffic.InfoModel, instances)
	for i := range models {
		im, err := traffic.BuildModel(w.model.Name, core.NewModel(m), w.model.Args())
		if err != nil {
			return nil, err
		}
		for o := 0; o < 8; o++ {
			im.Provider(grid.OrientationFromIndex(o))
		}
		models[i] = im
	}
	coreDone := time.Now()
	p, err := traffic.BuildPattern(w.pattern.Name, m, w.pattern.Args())
	if err != nil {
		return nil, err
	}
	return &trial{
		m: m, models: models, pattern: p,
		meshS: meshDone.Sub(start).Seconds(), coreS: coreDone.Sub(meshDone).Seconds(),
	}, nil
}

// run executes the trial on the given number of shards (1 = the sequential
// engine) and returns the result and the host seconds spent in Engine.Run.
// The shards route against the trial's prebuilt models.
func (w *simWorkload) run(t *trial, seed uint64, shards int, telemetry bool) (*traffic.Result, float64) {
	next := 0
	opts := traffic.Options{
		Rate:      w.rate,
		Warmup:    simnet.Time(w.spec.Measure.Warmup),
		Window:    simnet.Time(w.spec.Measure.Window),
		LinkDelay: simnet.Time(w.spec.Measure.LinkDelay),
		MaxEvents: w.spec.Measure.MaxEvents,
		Timeline:  w.timeline,
		Telemetry: telemetry,
		Shards:    shards,
		ShardModel: func() (traffic.InfoModel, error) {
			if next == len(t.models) {
				return nil, fmt.Errorf("engine asked for more than %d shard models", len(t.models))
			}
			next++
			return t.models[next-1], nil
		},
	}
	e := traffic.NewEngine(t.m, t.models[0], t.pattern, opts)
	start := time.Now()
	res := e.Run(seed)
	return res, time.Since(start).Seconds()
}

// shards is the workload's shard count from its exec block (1 = sequential).
func (w *simWorkload) shards() int { return max(1, w.spec.ShardCount()) }

// simSetupRepeats is how many trial set-ups the setup_s median of a
// simulation run takes.
const simSetupRepeats = 21

// runSim is the runner of the simulation workloads.
func runSim(cfg config, l *ledger) (map[string]metric, error) {
	w, err := loadSim(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	ref, err := loadReference(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		return w.traced(cfg, l, ref)
	}
	var (
		delivered, trials int
		runS, trialS      float64
		setups            []float64
	)
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < cfg.budget; i++ {
		seed := w.trialSeed(i)
		runtime.GC()
		trialStart := time.Now()
		t, err := w.setup(seed, w.shards())
		if err != nil {
			return nil, err
		}
		res, s := w.run(t, seed, w.shards(), false)
		trialS += time.Since(trialStart).Seconds()
		w.check(l, i, res, ref)
		setups = append(setups, t.setupS())
		delivered += res.Delivered
		runS += s
		trials++
	}
	// A run has only a few trials, so set-up is repeated, without running,
	// for the seeds of the trials that follow until the median has
	// setupRepeats samples.
	for i := trials; len(setups) < simSetupRepeats; i++ {
		runtime.GC()
		t, err := w.setup(w.trialSeed(i), w.shards())
		if err != nil {
			return nil, err
		}
		setups = append(setups, t.setupS())
	}
	return map[string]metric{
		"packets_per_s": {float64(delivered) / runS, "1/s"},
		"jobs_per_s":    {float64(trials) / trialS, "1/s"},
		"setup_s":       {median(setups), "s"},
		"peak_rss_mb":   {peakRSSMB(), "MB"},
	}, nil
}

// check verifies one trial's result: no engine error, the packet ledger
// balances, and — where a reference was recorded for this seed and trial —
// the result hash equals it. It returns the hash.
func (w *simWorkload) check(l *ledger, i int, res *traffic.Result, ref []string) string {
	if res.Err != nil {
		l.fail("%s trial %d: engine error: %v", w.name, i, res.Err)
		return ""
	}
	h := resultHash(res)
	switch {
	case !ledgerBalances(res):
		l.fail("%s trial %d: packet ledger does not balance: %s", w.name, i, summary(res))
	case i < len(ref):
		l.ok(h == ref[i], "%s trial %d: result hash %s, reference %s", w.name, i, h, ref[i])
	default:
		l.ok(true, "")
	}
	return h
}

// ledgerBalances checks the identities every result satisfies: injected =
// delivered + stuck + lost with no negative term, each measured delivery is
// in both histograms, and the churn phases account for every measured
// delivery.
func ledgerBalances(r *traffic.Result) bool {
	if r.Injected != r.Delivered+r.Stuck+r.Lost || r.Lost < 0 || r.Stuck < 0 {
		return false
	}
	if r.MeasuredDelivered > r.MeasuredInjected || r.MeasuredDelivered > r.Delivered {
		return false
	}
	if r.Latency.N() != int64(r.MeasuredDelivered) || r.Hops.N() != int64(r.MeasuredDelivered) {
		return false
	}
	if r.Phases != nil {
		sum := 0
		for _, p := range r.Phases {
			sum += p.Delivered
		}
		if sum != r.MeasuredDelivered {
			return false
		}
	}
	return r.Delivered > 0
}

func summary(r *traffic.Result) string {
	return fmt.Sprintf("injected %d delivered %d stuck %d lost %d measured %d/%d",
		r.Injected, r.Delivered, r.Stuck, r.Lost, r.MeasuredDelivered, r.MeasuredInjected)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// layerTotals accumulates the traced trials' per-layer figures.
type layerTotals struct {
	trials                      int
	plainDelivered, tracedDeliv int
	plainRunS, runS, selfS      float64
	meshS, coreS                []float64
	applyS, repairS             float64
	applies, repairs            int
	events                      int
	counters                    [telemetry.NumCounters]int64
	bucketPeak                  int64
	hitNs, buildNs              []float64
	allocBytes, retainedPerNode float64
	mallocs, injected           uint64
	gcCycles                    uint64
	gcCPUS                      float64
}

// traced is the traced run of a simulation workload. Each trial runs twice on
// the same seed: untraced, then with telemetry on and every model wrapped in
// the span-recording decorator. The two result hashes must be equal, and the
// pair gives trace.overhead. On a sharded workload the first trial also runs
// on one shard, which gives simnet.shard_speedup and re-checks that the
// shard count does not change the result.
func (w *simWorkload) traced(cfg config, l *ledger, ref []string) (map[string]metric, error) {
	tr := newTracer()
	clockNs := clockCostNs(tr)
	var (
		tot     layerTotals
		speedup float64
	)
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < cfg.budget; i++ {
		seed := w.trialSeed(i)
		runtime.GC()
		t, err := w.setup(seed, w.shards())
		if err != nil {
			return nil, err
		}
		plain, plainS := w.run(t, seed, w.shards(), false)
		want := w.check(l, i, plain, ref)
		tot.plainDelivered += plain.Delivered
		tot.plainRunS += plainS
		t, plain = nil, nil

		if w.shards() > 1 && i == 0 {
			runtime.GC()
			one, err := w.setup(seed, 1)
			if err != nil {
				return nil, err
			}
			res, oneS := w.run(one, seed, 1, false)
			l.ok(res.Err == nil && resultHash(res) == want, "%s trial %d: 1-shard result differs from %d shards", w.name, i, w.shards())
			speedup = oneS / plainS
		}

		runtime.GC()
		var ms0, ms2, ms3 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		root := tr.add(span{ID: i, Name: "trial", Parent: -1, Start: tr.now()})
		setupStart := time.Now()
		t, err = w.setup(seed, w.shards())
		if err != nil {
			return nil, err
		}
		meshEnd := setupStart.Add(time.Duration(t.meshS * float64(time.Second)))
		tr.add(span{ID: i, Name: "mesh.build", Parent: root, Start: tr.at(setupStart), End: tr.at(meshEnd)})
		tr.add(span{ID: i, Name: "core.build", Parent: root, Start: tr.at(meshEnd), End: tr.at(meshEnd.Add(time.Duration(t.coreS * float64(time.Second))))})
		runtime.GC()
		runtime.ReadMemStats(&ms2)
		decorated := make([]*tracedModel, len(t.models))
		for k, im := range t.models {
			if decorated[k], err = newTracedModel(im, tr); err != nil {
				return nil, err
			}
			t.models[k] = decorated[k]
		}
		gc0 := gcStats()
		runStart := tr.now()
		res, runS := w.run(t, seed, w.shards(), true)
		run := tr.add(span{ID: i, Name: "traffic.run", Parent: root, Start: runStart, End: tr.now()})
		gc1 := gcStats()
		runtime.ReadMemStats(&ms3)
		tr.spans[root].End = tr.now()

		l.ok(res.Err == nil && resultHash(res) == want, "%s trial %d: traced result differs from untraced", w.name, i)
		tel := res.Telemetry
		decisions := tel.Get(telemetry.DecisionHits) + tel.Get(telemetry.DecisionBuilds)
		calls, unwrapped := 0, 0
		var (
			hitNs, buildNs []float64
			sampledNs      int64
		)
		for _, dm := range decorated {
			calls += dm.calls
			unwrapped += dm.unwrapped
			for _, s := range dm.spans {
				s.ID, s.Parent = i, run
				tr.add(s)
				switch s.Name {
				case spanApply:
					tot.applyS += float64(s.dur()) / 1e9
					tot.applies++
				case spanRepair:
					tot.repairS += float64(s.dur()) / 1e9
					tot.repairs++
				case spanDecideHit:
					hitNs = append(hitNs, float64(s.dur())-clockNs)
					sampledNs += s.dur()
				case spanDecideBuild:
					buildNs = append(buildNs, float64(s.dur())-clockNs)
					sampledNs += s.dur()
				}
			}
		}
		// Every hop decision must have passed through a sampling wrapper:
		// otherwise the engine took another path than untraced.
		l.ok(unwrapped == 0 && int64(calls) == decisions, "%s trial %d: %d of %d decisions reached the sampler (%d providers unwrapped)", w.name, i, calls, decisions, unwrapped)

		// Self time of the engine and event core: the run minus the model
		// calls it made and the estimated time of all decisions, which
		// replaces the sampled decision spans selfNs took out. Shards decide
		// concurrently, so on a sharded run the estimate is spread over them.
		decideS := (mean(hitNs)*float64(tel.Get(telemetry.DecisionHits)) + mean(buildNs)*float64(tel.Get(telemetry.DecisionBuilds))) / 1e9
		tot.selfS += float64(tr.selfNs(run)+sampledNs)/1e9 - decideS/float64(w.shards())
		tot.hitNs = append(tot.hitNs, hitNs...)
		tot.buildNs = append(tot.buildNs, buildNs...)

		tot.trials++
		tot.tracedDeliv += res.Delivered
		tot.runS += runS
		tot.meshS = append(tot.meshS, t.meshS)
		tot.coreS = append(tot.coreS, t.coreS)
		tot.events += res.Events
		for c := telemetry.CounterID(0); c < telemetry.NumCounters; c++ {
			tot.counters[c] += tel.Get(c)
		}
		tot.bucketPeak = max(tot.bucketPeak, tel.Get(telemetry.SimBucketPeak))
		tot.allocBytes += float64(ms3.TotalAlloc - ms0.TotalAlloc)
		tot.retainedPerNode += float64(ms2.HeapAlloc-min(ms2.HeapAlloc, ms0.HeapAlloc)) / float64(t.m.NodeCount())
		tot.mallocs += ms3.Mallocs - ms2.Mallocs
		tot.injected += uint64(res.Injected)
		tot.gcCycles += gc1.cycles - gc0.cycles
		tot.gcCPUS += gc1.cpuS - gc0.cpuS
	}
	path, err := tr.write(fmt.Sprintf("%s-seed%d", w.name, cfg.seed))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "mccbench: %d spans in %s\n", len(tr.spans), path)

	n := float64(tot.trials)
	perTrial := func(c telemetry.CounterID) float64 { return float64(tot.counters[c]) / n }
	hits, builds := perTrial(telemetry.DecisionHits), perTrial(telemetry.DecisionBuilds)
	hitNs, buildNs := mean(tot.hitNs), mean(tot.buildNs)
	m := map[string]metric{
		"traffic.run_s":                 {tot.runS / n, "s"},
		"traffic.self_s":                {tot.selfS / n, "s"},
		"simnet.events":                 {float64(tot.events) / n, "count"},
		"simnet.events_per_s":           {float64(tot.events) / tot.runS, "1/s"},
		"simnet.heap_events":            {perTrial(telemetry.SimHeapEvents), "count"},
		"simnet.bucket_peak":            {float64(tot.bucketPeak), "count"},
		"routing.decisions":             {hits + builds, "count"},
		"routing.decision_hit_ratio":    {hits / (hits + builds), "ratio"},
		"routing.hit_ns":                {hitNs, "ns"},
		"routing.build_ns":              {buildNs, "ns"},
		"routing.decide_s":              {(hitNs*hits + buildNs*builds) / 1e9, "s"},
		"routing.field_cold_builds":     {perTrial(telemetry.FieldColdBuilds), "count"},
		"routing.field_rebuilds":        {perTrial(telemetry.FieldRebuilds), "count"},
		"routing.field_evictions":       {perTrial(telemetry.FieldEvictions), "count"},
		"routing.epoch_bumps":           {perTrial(telemetry.FieldEpochBumps), "count"},
		"core.build_s":                  {median(tot.coreS), "s"},
		"core.apply_s":                  {tot.applyS / n, "s"},
		"core.repair_s":                 {tot.repairS / n, "s"},
		"core.applies":                  {float64(tot.applies) / n, "count"},
		"core.repairs":                  {float64(tot.repairs) / n, "count"},
		"labeling.relabel_add_nodes":    {perTrial(telemetry.RelabelAddNodes), "count"},
		"labeling.relabel_remove_nodes": {perTrial(telemetry.RelabelRemoveNodes), "count"},
		"mesh.build_s":                  {median(tot.meshS), "s"},
		"mem.alloc_mb_per_trial":        {tot.allocBytes / n / (1 << 20), "MB"},
		"mem.bytes_per_node":            {tot.retainedPerNode / n, "B"},
		"mem.allocs_per_packet":         {float64(tot.mallocs) / float64(tot.injected), "count"},
		"gc.cycles":                     {float64(tot.gcCycles) / n, "count"},
		"gc.cpu_s":                      {tot.gcCPUS / n, "s"},
		"trace.overhead":                {(float64(tot.tracedDeliv) / tot.runS) / (float64(tot.plainDelivered) / tot.plainRunS), "ratio"},
	}
	if w.shards() > 1 {
		m["simnet.shard_speedup"] = metric{speedup, "ratio"}
	}
	return m, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// gcSample is the Go runtime's cumulative GC work.
type gcSample struct {
	cycles uint64
	cpuS   float64
}

func gcStats() gcSample {
	samples := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return gcSample{cycles: samples[0].Value.Uint64(), cpuS: samples[1].Value.Float64()}
}
