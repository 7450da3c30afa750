package telemetry

import (
	"encoding/json"
	"testing"
)

func TestNilSinkIsInert(t *testing.T) {
	var s *Sink
	s.Inc(FieldColdBuilds)
	s.Add(PacketsInjected, 7)
	s.Max(SimBucketPeak, 9)
	s.Merge(NewSink())
	if got := s.Get(FieldColdBuilds); got != 0 {
		t.Errorf("nil sink Get = %d, want 0", got)
	}
	if snap := s.Snapshot(); snap != nil {
		t.Errorf("nil sink Snapshot = %v, want nil", snap)
	}
}

func TestSinkCountersAndSnapshot(t *testing.T) {
	s := NewSink()
	s.Inc(FieldColdBuilds)
	s.Inc(FieldColdBuilds)
	s.Add(PacketsInjected, 5)
	s.Max(SimBucketPeak, 3)
	s.Max(SimBucketPeak, 2) // lower value must not shrink the gauge
	if got := s.Get(FieldColdBuilds); got != 2 {
		t.Errorf("FieldColdBuilds = %d, want 2", got)
	}
	snap := s.Snapshot()
	want := map[string]int64{
		"routing.field_cold_builds": 2,
		"traffic.injected":          5,
		"simnet.bucket_peak":        3,
	}
	if len(snap) != len(want) {
		t.Fatalf("Snapshot = %v, want %v", snap, want)
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("Snapshot[%q] = %d, want %d", k, snap[k], v)
		}
	}
}

func TestMergeSumsCountsAndMaxesGauges(t *testing.T) {
	a, b := NewSink(), NewSink()
	a.Add(FieldColdBuilds, 3)
	a.Max(SimBucketPeak, 10)
	b.Add(FieldColdBuilds, 4)
	b.Max(SimBucketPeak, 6)
	a.Merge(b)
	if got := a.Get(FieldColdBuilds); got != 7 {
		t.Errorf("merged FieldColdBuilds = %d, want 7", got)
	}
	if got := a.Get(SimBucketPeak); got != 10 {
		t.Errorf("merged SimBucketPeak = %d, want 10 (gauge takes max)", got)
	}
}

func TestEveryCounterHasAName(t *testing.T) {
	seen := make(map[string]CounterID, NumCounters)
	for id := CounterID(0); id < NumCounters; id++ {
		name := id.String()
		if name == "" || name == "telemetry.unknown" {
			t.Errorf("counter %d has no name", id)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("counters %d and %d share the name %q", prev, id, name)
		}
		seen[name] = id
	}
}

func TestTraceSamplingIsDeterministic(t *testing.T) {
	a := NewTraceSink(42, 8, 4, nil)
	b := NewTraceSink(42, 8, 4, nil)
	c := NewTraceSink(43, 8, 4, nil)
	same, diff := true, false
	for id := 0; id < 4096; id++ {
		if a.Sampled(id) != b.Sampled(id) {
			same = false
		}
		if a.Sampled(id) != c.Sampled(id) {
			diff = true
		}
	}
	if !same {
		t.Error("identical keys must produce identical samples")
	}
	if !diff {
		t.Error("different keys should produce different samples")
	}
	var nilSink *TraceSink
	if nilSink.Sampled(0) {
		t.Error("nil trace sink must sample nothing")
	}
}

func TestTraceRingRecordsAndEvicts(t *testing.T) {
	s := NewSink()
	ts := NewTraceSink(1, 1, 2, s)
	// Packet 0: full life cycle.
	slot0 := ts.Begin(0, 5, 9, 10)
	ts.Hop(slot0, 0, 5, HopColdBuild)
	ts.Hop(slot0, 0, 6, HopDecisionHit)
	ts.Finish(slot0, 0, 14, StatusDelivered)
	// Packets 1 and 2 overflow the 2-slot ring: packet 2 recycles packet 0's
	// slot (finished, so nothing counts as evicted) and packet 1 never
	// finishes — Close must mark it lost.
	slot1 := ts.Begin(1, 7, 9, 11)
	slot2 := ts.Begin(2, 8, 9, 12)
	ts.Hop(slot1, 1, 7, HopDirect)
	ts.Hop(slot2, 2, 8, HopColdBuild)
	ts.Finish(slot2, 2, 15, StatusStuck)
	if got := s.Get(TracesSampled); got != 3 {
		t.Errorf("TracesSampled = %d, want 3", got)
	}
	ts.Close()
	traces := ts.Traces()
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2 (ring capacity)", len(traces))
	}
	if traces[0].Packet >= traces[1].Packet {
		t.Errorf("traces out of packet order: %d then %d", traces[0].Packet, traces[1].Packet)
	}
	for _, tr := range traces {
		if tr.Status == "" {
			t.Errorf("trace %d left without a status after Close", tr.Packet)
		}
	}
}

func TestTraceStaleSlotGuard(t *testing.T) {
	ts := NewTraceSink(1, 1, 1, nil)
	slot0 := ts.Begin(0, 1, 2, 0)
	slot1 := ts.Begin(1, 3, 4, 1)            // recycles the only slot
	ts.Hop(slot0, 0, 9, HopDirect)           // stale: must not touch packet 1
	ts.Finish(slot0, 0, 99, StatusDelivered) // stale: ditto
	ts.Hop(slot1, 1, 3, HopDirect)
	ts.Finish(slot1, 1, 5, StatusDelivered)
	traces := ts.Traces()
	if len(traces) != 1 || traces[0].Packet != 1 {
		t.Fatalf("ring should hold exactly packet 1, got %+v", traces)
	}
	if len(traces[0].Hops) != 1 || traces[0].Hops[0].Node != 3 || traces[0].Deliver != 5 {
		t.Errorf("stale writes leaked into packet 1's trace: %+v", traces[0])
	}
}

func TestHopSourceJSON(t *testing.T) {
	for _, tc := range []struct {
		src  HopSource
		json string
	}{
		{HopDirect, `{"node":3,"source":"direct"}`},
		{HopColdBuild, `{"node":3,"source":"cold-build"}`},
		{HopDecisionHit, `{"node":3,"source":"decision-hit"}`},
	} {
		out, err := json.Marshal(Hop{Node: 3, Source: tc.src})
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != tc.json {
			t.Errorf("hop JSON = %s, want %s", out, tc.json)
		}
		var h Hop
		if err := json.Unmarshal(out, &h); err != nil {
			t.Fatal(err)
		}
		if h.Node != 3 || h.Source != tc.src {
			t.Errorf("round-trip = %+v, want source %v", h, tc.src)
		}
	}
	var h Hop
	for _, gone := range []string{"warp", "cache-hit", "fallback"} {
		if err := json.Unmarshal([]byte(`{"source":"`+gone+`"}`), &h); err == nil {
			t.Errorf("hop source %q must fail to decode", gone)
		}
	}
}
