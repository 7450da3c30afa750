package server

import (
	"sync"
	"sync/atomic"

	"mccmesh/internal/mesh"
	"mccmesh/internal/scenario"
)

// TopoPool is the shared-topology layer of the scenario-execution server:
// jobs whose mesh/fault configuration hash (scenario.Spec.TopoKey) is equal
// draw their trial meshes from one immutable prototype instead of each
// rebuilding the topology tables. A prototype is a fault-free mesh that is
// never handed out or mutated — trials receive Clones, which share the
// read-only border masks and copy only the fault bitset, so
// concurrent jobs (and the parallel trial workers inside each job) run
// re-entrantly over shared read-only state.
type TopoPool struct {
	mu      sync.Mutex
	max     int
	entries map[string]*topoEntry
	order   []string // insertion order, for FIFO eviction of idle entries
	shares  int64    // Source calls answered by an existing prototype
	retired int64    // clones handed out by since-evicted entries
}

// topoEntry is one pooled prototype. clones is read/written atomically: the
// source closure runs on job goroutines while Stats reads from HTTP handlers.
type topoEntry struct {
	key    string
	proto  *mesh.Mesh
	active int32 // jobs currently holding a source over this prototype
	clones int64
}

// NewTopoPool returns a pool retaining at most max distinct topologies
// (max <= 0 selects 64). Idle entries past the cap are evicted FIFO; entries
// with active jobs are never evicted.
func NewTopoPool(max int) *TopoPool {
	if max <= 0 {
		max = 64
	}
	return &TopoPool{max: max, entries: make(map[string]*topoEntry)}
}

// Source returns a trial-mesh factory for the spec (the function installed
// via scenario.Scenario.SetMeshSource) and a release to call when the job
// ends. The factory is safe for concurrent use: it clones the pooled
// prototype, which is immutable for the pool's lifetime.
func (p *TopoPool) Source(spec scenario.Spec) (src func() *mesh.Mesh, release func()) {
	key := spec.TopoKey()
	p.mu.Lock()
	e := p.entries[key]
	if e == nil {
		e = &topoEntry{key: key, proto: spec.Mesh.New()}
		p.entries[key] = e
		p.order = append(p.order, key)
		p.evictLocked()
	} else {
		p.shares++
	}
	atomic.AddInt32(&e.active, 1)
	p.mu.Unlock()
	return func() *mesh.Mesh {
			atomic.AddInt64(&e.clones, 1)
			return e.proto.Clone()
		}, func() {
			atomic.AddInt32(&e.active, -1)
		}
}

// evictLocked drops the oldest idle entries until the pool is within its cap.
// An entry that was evicted while a job still held its source stays usable —
// the closure owns the prototype — it just stops being shared with new jobs.
func (p *TopoPool) evictLocked() {
	for len(p.entries) > p.max {
		evicted := false
		for i, key := range p.order {
			e := p.entries[key]
			if e != nil && atomic.LoadInt32(&e.active) > 0 {
				continue
			}
			p.retired += atomic.LoadInt64(&e.clones)
			delete(p.entries, key)
			p.order = append(p.order[:i], p.order[i+1:]...)
			evicted = true
			break
		}
		if !evicted {
			return // every entry is active; the cap yields rather than break jobs
		}
	}
}

// TopoStats is the pool's observable state (the /v1/stats payload).
type TopoStats struct {
	// Entries is the number of pooled prototypes; Shares counts jobs that
	// reused an existing prototype; Clones counts trial meshes handed out.
	Entries int   `json:"entries"`
	Shares  int64 `json:"shares"`
	Clones  int64 `json:"clones"`
}

// Stats returns a snapshot of the pool counters.
func (p *TopoPool) Stats() TopoStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := TopoStats{Entries: len(p.entries), Shares: p.shares, Clones: p.retired}
	for _, e := range p.entries {
		st.Clones += atomic.LoadInt64(&e.clones)
	}
	return st
}
