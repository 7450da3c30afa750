package simnet

import (
	"fmt"
	"runtime/debug"
)

// Slabs in parallel. A Network built by NewSlabs runs one simulation
// spatially sharded: every slab has its own calendar queue, sequence counter
// and handler state, and the slabs advance in lock step, one tick per barrier
// round of the loop in drain.
//
// The synchronisation is conservative with lookahead equal to the link delay:
// every cross-slab message sent at tick t is delivered no earlier than t+1,
// so within one tick the slabs are causally independent and may process
// their buckets in parallel. At the barrier the coordinator exchanges the
// slabs' outboxes in canonical (slab, send order) sequence, which pins the
// destination-side sequence numbers — a run on several slabs processes
// exactly the event set of the one-slab run, with every per-node event order
// preserved (nodes live in exactly one slab), so handlers whose observable
// results depend only on per-node order and on barrier-synchronised shared
// state produce bit-identical results at any slab count. Control callbacks
// run on the coordinator before any slab processes their tick, which is what
// keeps every slab's view of shared state tick-consistent.

// ctrlEvent is one scheduled control callback; ctrlHeap orders them by
// (time, seq), seq being the scheduling order.
type ctrlEvent struct {
	time Time
	seq  int64
	fn   func()
}

type ctrlHeap []ctrlEvent

func (h ctrlHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

// due reports whether a callback is scheduled for tick t, the earliest.
func (h ctrlHeap) due(t Time) bool { return len(h) > 0 && h[0].time == t }

func (h *ctrlHeap) push(ev ctrlEvent) {
	*h = append(*h, ev)
	for i := len(*h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *ctrlHeap) pop() ctrlEvent {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old = old[:n]
	*h = old
	for i := 0; ; {
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

// tickJob is one tick handed to a slab worker, with the slab's event budget.
type tickJob struct {
	t      Time
	budget int
}

// slabDone is one worker's report for one tick.
type slabDone struct {
	processed int
	exhausted bool
	panicked  any
}

// runTicks processes tick t on every active slab — in parallel when more than
// one is active, inline otherwise — each within budget events. It returns the
// events processed in all and whether any slab ran out of budget. A slab
// panic is re-raised on the coordinator goroutine so callers' existing
// recover boundaries see it.
func (n *Network) runTicks(active []int, t Time, budget int) (processed int, exhausted bool) {
	if len(active) == 1 {
		return n.slabs[active[0]].runTick(t, budget)
	}
	for _, s := range active {
		n.start[s] <- tickJob{t, budget}
	}
	var panicked any
	for range active {
		d := <-n.done
		if d.panicked != nil && panicked == nil {
			panicked = d.panicked
		}
		processed += d.processed
		exhausted = exhausted || d.exhausted
	}
	if panicked != nil {
		panic(panicked)
	}
	return processed, exhausted
}

// startWorkers launches one persistent goroutine per slab; stopWorkers ends
// them and waits.
func (n *Network) startWorkers() {
	n.start = make([]chan tickJob, len(n.slabs))
	n.done = make(chan slabDone, len(n.slabs))
	for s := range n.slabs {
		n.start[s] = make(chan tickJob, 1)
		n.workers.Add(1)
		go func(s int) {
			defer n.workers.Done()
			for j := range n.start[s] {
				n.runOneTick(s, j)
			}
		}(s)
	}
}

// runOneTick runs one slab tick on a worker goroutine, converting a panic
// into a report the coordinator re-raises (a bare panic in a worker would
// kill the process past every caller's recover).
func (n *Network) runOneTick(s int, j tickJob) {
	var d slabDone
	defer func() {
		if p := recover(); p != nil {
			d.panicked = fmt.Sprintf("%v\n%s", p, debug.Stack())
		}
		n.done <- d
	}()
	d.processed, d.exhausted = n.slabs[s].runTick(j.t, j.budget)
}

func (n *Network) stopWorkers() {
	for _, ch := range n.start {
		close(ch)
	}
	n.workers.Wait()
	n.start, n.done = nil, nil
}

// exchange drains every slab's outbox in canonical order — slabs ascending,
// each outbox in send order — re-enqueueing each event into its destination
// slab. The double loop is single-threaded at the barrier, so the
// destination sequence numbers (and with them every bucket's delivery order)
// are deterministic. Boxed payloads move between the side tables here;
// reference payloads move through the MigrateRef hook.
func (n *Network) exchange() {
	for _, src := range n.slabs {
		if len(src.outbox) == 0 {
			continue
		}
		for i := range src.outbox {
			ev := src.outbox[i]
			if ev.time <= n.now {
				// A zero-lookahead send (a zero LinkDelay) would have to be
				// delivered into a tick that may already be processing; the
				// conservative barrier cannot order it.
				panic(fmt.Sprintf("simnet: cross-slab event for t=%d at barrier t=%d (zero-lookahead send)", ev.time, n.now))
			}
			dst := n.slabOf(ev.to)
			// Kind IDs are per-slab interning tables. Handlers that intern
			// through Network.Kind get identical IDs everywhere and this is a
			// map hit returning ev.kind unchanged; for lazily interned kinds
			// (string-based Send) it translates the source slab's ID into the
			// destination's.
			ev.kind = dst.intern(src.kindNames[ev.kind])
			if ev.box != noBox {
				ev.box = dst.box(src.unbox(ev.box))
			}
			if ev.ref != NoRef && n.opts.MigrateRef != nil {
				ev.ref = n.opts.MigrateRef(src.idx, dst.idx, ev.kind, ev.ref)
			}
			dst.enqueue(ev)
		}
		src.outbox = src.outbox[:0]
	}
}
