package server

import (
	"fmt"
	"sync"
	"time"
)

// ChaosPoint names one fault-injection site in the serving path. The seam
// exists for the chaos tests (and any future operational fault drills): a
// rule installed at a point makes the server panic, stall or drop an
// operation exactly where a real fault would land, so every recovery path is
// drivable from a `-race` test without timing luck.
type ChaosPoint string

const (
	// ChaosRun fires on the worker goroutine immediately before a claimed
	// job's scenario executes — inside the job-runner recover, so a Panic
	// rule here proves panic isolation end to end.
	ChaosRun ChaosPoint = "job.run"
	// ChaosSeal fires immediately before a job's terminal state is recorded;
	// a Delay rule widens the window for cancel/DELETE racing the final seal.
	ChaosSeal ChaosPoint = "job.seal"
	// ChaosJournalSubmit fires before a submit record is appended to the
	// journal; an Err rule drops the record (a write lost before the job was
	// queued).
	ChaosJournalSubmit ChaosPoint = "journal.submit"
	// ChaosJournalSeal fires before a seal record is appended to the journal;
	// an Err rule drops the record, simulating a crash after the job was
	// admitted but before its outcome was made durable — the journal-replay
	// path on restart.
	ChaosJournalSeal ChaosPoint = "journal.seal"
)

// ChaosRule is what happens when execution crosses an armed ChaosPoint.
// Delay applies first, then Panic, then Err.
type ChaosRule struct {
	// Delay stalls the crossing goroutine before anything else.
	Delay time.Duration
	// Panic panics at the point (recovered wherever production recovers).
	Panic bool
	// Err is returned to the point's caller; for journal points a non-nil
	// Err drops the record.
	Err error
	// Times arms the rule for this many crossings (0 = until removed).
	Times int
}

// chaos holds the armed rules; the zero value (no rules) is the production
// state and costs one mutex acquisition per job-granularity crossing — the
// packet-level hot path never crosses a chaos point.
type chaos struct {
	mu    sync.Mutex
	rules map[ChaosPoint]*ChaosRule
}

// InjectFault arms a chaos rule at a point, replacing any existing rule
// there. Test-harness API: production servers never call it.
func (s *Server) InjectFault(p ChaosPoint, r ChaosRule) {
	s.chaos.mu.Lock()
	defer s.chaos.mu.Unlock()
	if s.chaos.rules == nil {
		s.chaos.rules = make(map[ChaosPoint]*ChaosRule)
	}
	rule := r
	s.chaos.rules[p] = &rule
}

// ClearFaults disarms every chaos rule.
func (s *Server) ClearFaults() {
	s.chaos.mu.Lock()
	defer s.chaos.mu.Unlock()
	s.chaos.rules = nil
}

// hit crosses a chaos point: it applies the armed rule (if any) and returns
// the rule's error. A Panic rule panics here, on the crossing goroutine.
func (c *chaos) hit(p ChaosPoint) error {
	c.mu.Lock()
	r, ok := c.rules[p]
	if !ok {
		c.mu.Unlock()
		return nil
	}
	rule := *r
	if r.Times > 0 {
		r.Times--
		if r.Times == 0 {
			delete(c.rules, p)
		}
	}
	c.mu.Unlock()
	if rule.Delay > 0 {
		time.Sleep(rule.Delay)
	}
	if rule.Panic {
		panic(fmt.Sprintf("chaos: injected panic at %s", p))
	}
	return rule.Err
}
