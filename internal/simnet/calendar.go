package simnet

import (
	"math/bits"

	"mccmesh/internal/telemetry"
)

// The event queue of the simulator: a calendar queue (timing wheel) of
// per-tick buckets for the near future, with a plain binary heap of events as
// the fallback for the far future.
//
// Design notes, because determinism is load-bearing here:
//
//   - The wheel covers the half-open window [now, now+wheelSize). Within the
//     window, tick t maps to ring slot t & wheelMask — unique, because the
//     window is exactly one ring revolution — so a bucket only ever holds
//     events of a single tick.
//   - Sequence numbers increase monotonically, so appending to a bucket keeps
//     it sorted by seq, and draining a bucket front to back reproduces the
//     (time, seq) order of the binary-heap scheduler it replaced.
//   - Far-future events (beyond the window — distant timers) go to the heap,
//     which pops in (time, seq) order. Whenever the clock advances to t,
//     every heap event with time < t+window migrates into its ring slot
//     *before* any new event can be enqueued for those ticks (slab.advance), so
//     migrated events (small seq) land ahead of later direct appends (large
//     seq) and bucket order stays seq-sorted. The target slots are free at
//     migration time: they correspond to ticks that were drained before t.
//   - Drained buckets are reset to length zero but keep their backing arrays
//     (the free-lists), so steady-state enqueue/dequeue allocates nothing.
//
// Bucket storage is bounded by design, not by the length of the run. Each
// tick has one big bucket, the next tick's deliveries (the traffic frontier;
// at 32³ it holds 10–21k events and fills while the current tick drains), and
// many timer buckets that fill slowly over the ticks before theirs. Every
// bucket array has a power-of-two size class, capacity 8<<k, and a full bucket
// only ever moves up to a larger class:
//
//   - Small classes (capacity < bigBucketCap) are carved from arena chunks and
//     parked on per-class free-lists, never dropped. A class allocates only
//     when its free-list is empty, i.e. when every array of the class sits in
//     a live slot, so it holds at most L arrays, L being the peak number of
//     non-empty ring slots (≤ wheelSize).
//   - Big arrays are allocated on their own: an arena sub-slice would pin its
//     whole chunk, so a dropped big array would never be freed. A bucket of
//     the frontier (the current or the next tick) that outgrows its array
//     adopts the best-fitting parked big array — the smallest that holds more
//     than it does — so it jumps straight onto the array the last drained
//     tick returned instead of re-climbing the doubling ladder. Any other
//     bucket takes exactly the next class, so its capacity stays at most
//     twice its length. Only when nothing parked fits is a doubled array
//     allocated, so no big array reaches 2P, P being the peak bucket length
//     (simnet.bucket_peak).
//   - Each big class parks at most maxSpareBig arrays; a further one is
//     dropped to the GC.
//
// With O the peak ring occupancy, the retained storage — arena chunks plus
// big arrays, live or parked — therefore stays within
//
//	2·O + (4 + 4·maxSpareBig)·P + bigBucketCap·L + arenaChunk   events:
//
// twice the occupancy for the exactly-sized buckets, 2P for each of the two
// frontier buckets, under 4P per parking place across the big classes, and
// the small classes (248·L) with the arena's carving slack and current chunk.
// None of the terms grows with the tick count; TestCalendarStorageBounded
// asserts the bound and simnet.bucket_storage_peak reports the peak. Storage
// choice never affects event order: a bucket keeps its events, in order,
// whichever array backs it.
type calendarQueue struct {
	ring  [][]event
	count int // events resident in the ring
	far   farHeap
	// spare holds the parked bucket arrays, one free-list per size class:
	// spare[k] holds arrays of capacity 8<<k.
	spare [numClasses][][]event
	// arena is the current chunk small arrays are carved from.
	arena []event
	// storage is the retained bucket capacity in events: every arena chunk
	// plus every big array, live or parked. It moves only when a chunk or a
	// big array is allocated or a big array is dropped.
	storage int
	// tel receives queue counters (heap fallbacks, migrations, bucket reuse,
	// peak occupancy and storage); nil — the default — costs one predicted
	// branch per hook.
	tel *telemetry.Sink
}

const (
	// bigBucketCap is the first big size class: arrays at or beyond it are
	// allocated on their own and their free-lists are bounded.
	bigBucketCap = 256

	// maxSpareBig bounds the arrays parked per big class. The frontier needs
	// one: the array the last drained tick returned, which the next tick's
	// bucket adopts while the current one still drains.
	maxSpareBig = 2

	// numClasses covers every capacity a bucket can reach (8<<47 events).
	numClasses = 48

	// arenaChunk is the carving granularity of the small-class arena, in
	// events: large enough that a run's ramp-up costs a handful of chunk
	// allocations, small enough that the last partially-used chunk wastes
	// little.
	arenaChunk = 4096

	wheelBits = 11
	// wheelSize is the width of the calendar window in ticks. Link delays are
	// tiny and traffic timers are geometric with means well under this, so in
	// practice only far-tail timers hit the heap. Control callbacks
	// (Network.At) never enter the calendar: they wait in the Network's own
	// heap and run before their tick's events.
	wheelSize = Time(1) << wheelBits
	wheelMask = wheelSize - 1
)

// event is one scheduled delivery or timer, stored by value in the queue. It
// is deliberately pointer-free: boxed payloads live in the slab's side table
// (event.box indexes it), so the garbage collector never scans the queue and
// drained buckets need no zeroing.
type event struct {
	time     Time
	seq      int64
	from, to int32 // dense node IDs; mesh.NoNeighbor for off-mesh
	kind     KindID
	ref      int32 // payload reference (SendRef/AfterRef), or NoRef
	box      int32 // index into slab.boxed, or noBox
}

// noBox marks an event without a boxed payload.
const noBox int32 = -1

func (q *calendarQueue) init() {
	q.ring = make([][]event, wheelSize)
}

// pending reports whether any event is queued.
func (q *calendarQueue) pending() bool { return q.count > 0 || len(q.far) > 0 }

// push buckets an event: ring when it falls within the window (measured from
// now), heap otherwise. threshold is the effective window width (tests shrink
// it to force heap traffic; it never exceeds wheelSize).
func (q *calendarQueue) push(ev event, now, threshold Time) {
	if ev.time < now+threshold {
		q.append(ev.time&wheelMask, ev, ev.time <= now+1)
	} else {
		q.tel.Inc(telemetry.SimHeapEvents)
		q.far.push(ev)
	}
}

// append adds an event to a ring slot, first moving a full (or empty) slot
// onto a larger array; frontier marks a slot of the current or the next tick.
func (q *calendarQueue) append(slot Time, ev event, frontier bool) {
	b := q.ring[slot]
	if len(b) == cap(b) {
		b = q.grow(b, frontier)
	}
	b = append(b, ev)
	q.ring[slot] = b
	q.count++
	q.tel.Max(telemetry.SimBucketPeak, int64(len(b)))
}

// grow copies the full bucket b onto an array of the next size class (8 for an
// empty slot) — or, on the frontier, onto the best-fitting parked big array —
// and parks b. Small arrays are carved from the arena, big ones allocated.
func (q *calendarQueue) grow(b []event, frontier bool) []event {
	n := 8
	if cap(b) > 0 {
		n = 2 * cap(b)
	}
	k := class(n)
	nb := q.pop(k)
	if nb == nil && n < bigBucketCap {
		nb = q.carve(n)
	}
	for j := k + 1; nb == nil && frontier && j < numClasses; j++ {
		nb = q.pop(j)
	}
	if nb == nil {
		nb = make([]event, 0, n)
		q.addStorage(n)
	}
	nb = nb[:copy(nb[:len(b)], b)]
	q.park(b)
	return nb
}

// class returns the size class of a bucket capacity (8<<k is class k).
func class(c int) int { return bits.Len(uint(c)) - 4 }

// pop takes the last parked array of class k, or returns nil. The vacated
// free-list entry is cleared so it cannot keep a later-dropped array alive.
func (q *calendarQueue) pop(k int) []event {
	l := q.spare[k]
	if len(l) == 0 {
		return nil
	}
	b := l[len(l)-1]
	l[len(l)-1] = nil
	q.spare[k] = l[:len(l)-1]
	q.tel.Inc(telemetry.SimBucketReuses)
	return b
}

// carve cuts a small n-event array out of the arena, starting a fresh chunk
// when the current one cannot fit it. The three-index slice caps the result at
// exactly n, so a bucket appending at capacity can never spill into storage
// carved for another slot.
func (q *calendarQueue) carve(n int) []event {
	if len(q.arena)+n > cap(q.arena) {
		q.arena = make([]event, 0, arenaChunk)
		q.addStorage(arenaChunk)
	}
	off := len(q.arena)
	q.arena = q.arena[:off+n]
	return q.arena[off : off : off+n]
}

// park returns a drained (or outgrown) backing array to its class free-list,
// dropping a big one to the GC when its class already parks maxSpareBig.
func (q *calendarQueue) park(b []event) {
	if cap(b) == 0 {
		return
	}
	k := class(cap(b))
	if cap(b) >= bigBucketCap && len(q.spare[k]) == maxSpareBig {
		q.addStorage(-cap(b))
		return
	}
	q.spare[k] = append(q.spare[k], b[:0])
}

// addStorage moves the retained-storage total by delta events and raises the
// storage gauge.
func (q *calendarQueue) addStorage(delta int) {
	q.storage += delta
	q.tel.Max(telemetry.SimBucketStoragePeak, int64(q.storage))
}

// nextTime returns the tick of the earliest queued event. The caller
// guarantees pending(). Ring events always precede heap events (the heap only
// holds times at or beyond the window), so the ring is scanned first.
func (q *calendarQueue) nextTime(now Time) Time {
	if q.count > 0 {
		for t := now; ; t++ {
			if len(q.ring[t&wheelMask]) > 0 {
				return t
			}
		}
	}
	return q.far[0].time
}

// migrate moves every heap event with time < t+threshold into its ring slot.
// Called exactly when the clock advances to t, before processing: the slots
// involved were drained earlier, and heap pops arrive in (time, seq) order,
// so every bucket stays seq-sorted.
func (q *calendarQueue) migrate(t, threshold Time) {
	for len(q.far) > 0 && q.far[0].time < t+threshold {
		ev := q.far.pop()
		q.tel.Inc(telemetry.SimHeapMigrations)
		q.append(ev.time&wheelMask, ev, false)
	}
}

// consume removes the first n events of a drained bucket, recycling the
// backing array when the bucket is fully processed. Events are pointer-free,
// so no zeroing is needed.
func (q *calendarQueue) consume(bucket *[]event, n int) {
	q.count -= n
	if n == len(*bucket) {
		q.park(*bucket)
		*bucket = nil
		return
	}
	// Partial consumption only happens on event-budget abort. The rest moves
	// to the front so the array keeps its size class.
	*bucket = (*bucket)[:copy(*bucket, (*bucket)[n:])]
}

// farHeap is a binary min-heap of events ordered by (time, seq), implemented
// directly on the slice to avoid container/heap's interface boxing.
type farHeap []event

func (h farHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h *farHeap) push(ev event) {
	*h = append(*h, ev)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *farHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old = old[:n]
	*h = old
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && old.less(l, smallest) {
			smallest = l
		}
		if r < n && old.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		old[i], old[smallest] = old[smallest], old[i]
		i = smallest
	}
	return top
}
