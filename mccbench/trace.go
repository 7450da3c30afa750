package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mccmesh/internal/grid"
	"mccmesh/internal/mesh"
	"mccmesh/internal/routing"
	"mccmesh/internal/telemetry"
	"mccmesh/internal/traffic"
)

// span is one traced interval. Spans of one trial or one serve-mix job share
// ID; Parent is the index of the enclosing span in the run's span list, -1
// for a root. Times are nanoseconds since the run's tracer started.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps a run's spans in memory; write saves them when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(x time.Time) int64 { return x.Sub(t.epoch).Nanoseconds() }

func (t *tracer) now() int64 { return t.at(time.Now()) }

// add records a span and returns its index.
func (t *tracer) add(s span) int {
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// selfNs returns span i's duration minus the part of it its child spans
// cover.
func (t *tracer) selfNs(i int) int64 {
	var kids [][2]int64
	for _, s := range t.spans {
		if s.Parent == i {
			kids = append(kids, [2]int64{s.Start, s.End})
		}
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a][0] < kids[b][0] })
	var covered, end int64
	for _, k := range kids {
		if k[0] > end {
			end = k[0]
		}
		if k[1] > end {
			covered += k[1] - end
			end = k[1]
		}
	}
	return t.spans[i].dur() - covered
}

// write saves the spans as JSON lines under the work directory.
func (t *tracer) write(name string) (string, error) {
	path := filepath.Join(workDir, "spans-"+name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// sampleEvery is the decision-sampling period: one hop decision in every
// sampleEvery is timed.
const sampleEvery = 128

// Span names recorded inside Engine.Run.
const (
	spanProvider    = "model.provider"
	spanApply       = "core.apply"
	spanRepair      = "core.repair"
	spanDecideHit   = "routing.decide.hit"
	spanDecideBuild = "routing.decide.build"
)

// updatingModel is the surface of the MCC model the decorator wraps: an
// information model with incremental fault and repair updates and a
// telemetry hook.
type updatingModel interface {
	traffic.InfoModel
	traffic.FaultApplier
	traffic.FaultRepairer
	telemetry.Instrumentable
}

// tracedModel decorates an information model for the traced run: it records
// spans around Provider, ApplyFaults and RepairFaults and hands out providers
// that time a sample of hop decisions. It implements exactly the interfaces
// of the model it wraps, so the engine takes the same path traced as
// untraced. One instance serves one engine instance (one shard), whose calls
// never overlap, so it needs no lock.
type tracedModel struct {
	inner updatingModel
	tr    *tracer // clock only; spans are kept here until merged
	tel   *telemetry.Sink
	spans []span
	// calls counts the decisions that went through a wrapped provider;
	// unwrapped counts providers handed out without decision sampling.
	calls, unwrapped int
}

func newTracedModel(im traffic.InfoModel, tr *tracer) (*tracedModel, error) {
	inner, ok := im.(updatingModel)
	if !ok {
		return nil, fmt.Errorf("model %s lacks incremental updates or telemetry; the decorator would change the engine's path", im.Name())
	}
	return &tracedModel{inner: inner, tr: tr}, nil
}

func (m *tracedModel) record(name string, start int64) {
	m.spans = append(m.spans, span{Name: name, Start: start, End: m.tr.now()})
}

func (m *tracedModel) Name() string { return m.inner.Name() }

func (m *tracedModel) Invalidate() { m.inner.Invalidate() }

func (m *tracedModel) Provider(o grid.Orientation) routing.Provider {
	start := m.tr.now()
	p := m.inner.Provider(o)
	m.record(spanProvider, start)
	if d, ok := p.(decider); ok {
		return &sampledProvider{Provider: p, dec: d, m: m}
	}
	m.unwrapped++
	return p
}

func (m *tracedModel) ApplyFaults(pts []grid.Point) {
	start := m.tr.now()
	m.inner.ApplyFaults(pts)
	m.record(spanApply, start)
}

func (m *tracedModel) RepairFaults(pts []grid.Point) {
	start := m.tr.now()
	m.inner.RepairFaults(pts)
	m.record(spanRepair, start)
}

// SetTelemetry forwards the engine's sink and keeps it: the decision sampler
// reads routing.decision_builds from it.
func (m *tracedModel) SetTelemetry(s *telemetry.Sink) {
	m.tel = s
	m.inner.SetTelemetry(s)
}

// decider is the hop-decision surface of a provider. The engine selects its
// packed-decision path by a type assertion that also requires AllowedID, so
// a wrapper must forward both for the engine to keep that path; the
// benchmark itself only ever calls CandidateMaskID.
type decider interface {
	AllowedID(u, v, d int32) bool
	CandidateMaskID(m *mesh.Mesh, u int32, uPt grid.Point, d int32, dPt grid.Point) uint8
}

// sampledProvider times one CandidateMaskID call in every sampleEvery and
// labels it a build when routing.decision_builds moved during the call, a hit
// otherwise.
type sampledProvider struct {
	routing.Provider
	dec decider
	m   *tracedModel
}

func (p *sampledProvider) AllowedID(u, v, d int32) bool { return p.dec.AllowedID(u, v, d) }

func (p *sampledProvider) CandidateMaskID(msh *mesh.Mesh, u int32, uPt grid.Point, d int32, dPt grid.Point) uint8 {
	m := p.m
	m.calls++
	if m.calls%sampleEvery != 0 {
		return p.dec.CandidateMaskID(msh, u, uPt, d, dPt)
	}
	builds := m.tel.Get(telemetry.DecisionBuilds)
	start := m.tr.now()
	mk := p.dec.CandidateMaskID(msh, u, uPt, d, dPt)
	name := spanDecideHit
	if m.tel.Get(telemetry.DecisionBuilds) != builds {
		name = spanDecideBuild
	}
	m.record(name, start)
	return mk
}

// clockCostNs is the median cost of one empty clock-read pair, subtracted
// from the sampled decision times.
func clockCostNs(tr *tracer) float64 {
	costs := make([]float64, 1001)
	for i := range costs {
		start := tr.now()
		costs[i] = float64(tr.now() - start)
	}
	return median(costs)
}
