package simnet

import (
	"testing"

	"mccmesh/internal/rng"
	"mccmesh/internal/telemetry"
)

// burstBase is the mean delivery burst of burstLoad: the 10–21k events a 32³
// hotspot trial delivers per tick, rounded.
const burstBase = 20_000

// burstSpan is how many ticks ahead burstLoad's timers reach.
const burstSpan = 256

// burstEvents is the delivery burst burstLoad copies into buckets.
var burstEvents = make([]event, burstBase+burstBase/2)

// burstLoad drives a bare calendar queue through a synthetic 32³-shaped load:
// at every tick t, a delivery burst of burstBase±50% events fills tick t+1
// (the link delay is one tick) while t is still live, and up to 63 timers land
// on scattered ticks up to burstSpan ahead. The burst fills the room left in its
// bucket with one copy — the state per-event appends would leave — and pushes
// the event that meets a full bucket, so every grow runs exactly where it
// would run for per-event pushes. beforeDrain, if non-nil, sees the queue at
// its fullest: after the tick's pushes, before its bucket drains.
func burstLoad(q *calendarQueue, ticks int, beforeDrain func(t Time)) {
	r := rng.New(rng.Derive(1, 32))
	ev := event{to: 1, box: noBox}
	for t := Time(0); t < Time(ticks); t++ {
		ev.time = t + 1
		next := &q.ring[ev.time&wheelMask]
		for n := burstBase/2 + r.Intn(burstBase+1); n > 0; {
			if b := *next; len(b) < cap(b) {
				k := min(n, cap(b)-len(b))
				*next = append(b, burstEvents[:k]...)
				q.count += k
				n -= k
				continue
			}
			ev.seq++
			q.push(ev, t, wheelSize)
			n--
		}
		q.tel.Max(telemetry.SimBucketPeak, int64(len(*next)))
		for i := r.Intn(64); i > 0; i-- {
			ev.seq++
			ev.time = t + 2 + Time(r.Intn(burstSpan-1))
			q.push(ev, t, wheelSize)
		}
		if beforeDrain != nil {
			beforeDrain(t)
		}
		bucket := &q.ring[t&wheelMask]
		q.consume(bucket, len(*bucket))
	}
}

// TestCalendarStorageBounded pins the storage bound of the calendarQueue
// comment on a 32³-shaped load: the retained bucket storage (arena chunks plus
// big arrays, live or parked) never exceeds
// 2·O + (4 + 4·maxSpareBig)·P + bigBucketCap·L + arenaChunk, and it does not
// grow with the tick count once the load is steady.
func TestCalendarStorageBounded(t *testing.T) {
	const ticks = 2000
	var q calendarQueue
	q.init()
	sink := telemetry.NewSink()
	q.tel = sink
	var occ, live, storage, at500, atEnd int
	burstLoad(&q, ticks, func(tick Time) {
		occ = max(occ, q.count)
		n := 0
		for d := Time(0); d <= burstSpan; d++ { // the load reaches no further
			if len(q.ring[(tick+d)&wheelMask]) > 0 {
				n++
			}
		}
		live = max(live, n)
		peak := int(sink.Get(telemetry.SimBucketPeak))
		bound := 2*occ + (4+4*maxSpareBig)*peak + bigBucketCap*live + arenaChunk
		if q.storage > bound {
			t.Fatalf("tick %d: bucket storage %d events exceeds the bound %d (O=%d P=%d L=%d)",
				tick, q.storage, bound, occ, peak, live)
		}
		storage = max(storage, q.storage)
		switch tick {
		case 499:
			at500 = q.storage
		case ticks - 1:
			atEnd = q.storage
		}
	})
	if atEnd != at500 {
		t.Errorf("bucket storage grew with time: %d events after 500 ticks, %d after %d", at500, atEnd, ticks)
	}
	if got := sink.Get(telemetry.SimBucketStoragePeak); got != int64(storage) {
		t.Errorf("simnet.bucket_storage_peak = %d, want the observed peak %d", got, storage)
	}
	t.Logf("storage %d events (peak %d) for O=%d P=%d L=%d",
		atEnd, storage, occ, sink.Get(telemetry.SimBucketPeak), live)
}
