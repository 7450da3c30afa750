package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// journalFile is the WAL's name inside the -state directory.
const journalFile = "journal.ndjson"

// journalRecord is one NDJSON line of the crash-safe job journal. Submit
// records carry the job's spec (the canonical JSON `mcc run -spec` reads);
// seal records carry the terminal status. A job whose submit record has no
// later seal record was in flight when the process died and is resubmitted
// on restart.
type journalRecord struct {
	// Op is "submit" or "seal".
	Op string `json:"op"`
	// ID is the job id the record belongs to.
	ID string `json:"id"`
	// Telemetry marks a submit record whose run had counters enabled.
	Telemetry bool `json:"telemetry,omitempty"`
	// Spec is the submitted scenario spec (submit records only).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Status is the terminal state (seal records only). Beyond the job
	// lifecycle states it can be "replayed": the job was resubmitted under a
	// new id after a restart; or "rejected": the submit was journaled but the
	// queue refused the job (full or draining).
	Status string `json:"status,omitempty"`
	// Error carries the terminal error text, if any.
	Error string `json:"error,omitempty"`
}

// journal is the append-only NDJSON WAL behind `mcc serve -state`. Appends
// are serialised and fsynced one record at a time — jobs are heavyweight
// (whole scenario runs), so durability costs nothing measurable, and the
// happy path of a stateless server never constructs one.
type journal struct {
	mu sync.Mutex
	f  *os.File
}

// openJournal opens (creating if needed) the journal under dir and replays
// its records: it returns the journal ready for appends, the submit records
// without a terminal seal (in submission order), and the highest job-id
// sequence number seen — the restart's starting point for fresh ids.
//
// The read side is crash-tolerant: a torn final line (the append the crash
// interrupted) ends the replay cleanly instead of failing it.
func openJournal(dir string) (*journal, []journalRecord, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("journal: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	pending, maxID, err := readJournal(path)
	if err != nil {
		return nil, nil, 0, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("journal: %w", err)
	}
	return &journal{f: f}, pending, maxID, nil
}

// readJournal scans an existing journal and returns the unsealed submit
// records in order plus the highest id sequence number.
func readJournal(path string) (pending []journalRecord, maxID int, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	open := make(map[string]int) // id -> index into pending, -1 = sealed
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec journalRecord
		if json.Unmarshal([]byte(line), &rec) != nil {
			// A torn tail from the interrupted final append: everything
			// before it is intact, so stop here rather than fail.
			break
		}
		if n := idSeq(rec.ID); n > maxID {
			maxID = n
		}
		switch rec.Op {
		case "submit":
			open[rec.ID] = len(pending)
			pending = append(pending, rec)
		case "seal":
			if i, ok := open[rec.ID]; ok && i >= 0 {
				pending[i].Op = "" // tombstone; compacted below
				open[rec.ID] = -1
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	out := pending[:0]
	for _, rec := range pending {
		if rec.Op == "submit" {
			out = append(out, rec)
		}
	}
	return out, maxID, nil
}

// idSeq extracts the numeric sequence of a "j0042"-style job id (0 when the
// id has another shape).
func idSeq(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j"))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// append writes one record and syncs it to disk. Append errors are returned
// for the caller to count; they never fail the job itself — a full disk must
// degrade durability, not serving.
func (j *journal) append(rec journalRecord) error {
	if j == nil {
		return nil
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal closed")
	}
	if _, err := j.f.Write(append(b, '\n')); err != nil {
		return err
	}
	return j.f.Sync()
}

// close releases the journal's file handle.
func (j *journal) close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Close() //nolint:errcheck // records are synced per append
		j.f = nil
	}
}
