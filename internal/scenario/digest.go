package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Digest returns the canonical identity of the spec: the hex SHA-256 of its
// canonical byte-stable dump (the normalised, defaults-filled spec encoded
// exactly as WriteSpec / `-dump-spec` emit it). Two specs share a digest if
// and only if they describe the same experiment, so the digest keys the
// `mcc serve` result cache and tags every job.
//
// The exec block is cleared before hashing (execExcluded): workers, shards
// and timeout are execution knobs, not part of the result — the same spec
// produces bit-identical reports at any worker or shard count, and a deadline
// changes when a run is abandoned, never what a completed run reports — so
// submissions differing only in those knobs must share a cache entry.
func (s Spec) Digest() string {
	s = execExcluded(s.withDefaults())
	return hexSHA256(canonicalDump(s))
}

// execExcluded strips the exec block from a copy of the spec. It is the
// single definition of "digest-excluded": anything an ExecSpec carries is out.
func execExcluded(s Spec) Spec {
	s.Exec = nil
	return s
}

// TopoKey returns the hash identifying the spec's mesh/fault configuration:
// jobs with equal TopoKeys run over structurally identical topologies and
// fault workloads, so a scenario-execution server lets them share one
// immutable topology prototype (see the server's topology pool). The key
// covers the mesh extents and the whole fault block — injector, counts,
// schedule and churn timeline — but none of the workload, measure or seed.
func (s Spec) TopoKey() string {
	s = s.withDefaults()
	key := struct {
		Mesh   MeshSpec  `json:"mesh"`
		Faults FaultSpec `json:"faults"`
	}{s.Mesh, s.Faults}
	b, err := json.Marshal(key)
	if err != nil {
		panic(fmt.Sprintf("scenario: topo key encoding failed: %v", err))
	}
	return hexSHA256(b)
}

// Digest returns the spec digest of the validated scenario (see Spec.Digest).
func (sc *Scenario) Digest() string { return sc.spec.Digest() }

// canonicalDump renders the spec exactly as WriteSpec does (two-space indent,
// trailing newline) — the byte-stable form the specs/ round-trip CI step
// pins, and therefore the bytes the digest is defined over.
func canonicalDump(s Spec) []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// A Spec is plain data: the only way Marshal can fail is a Params map
		// holding an unencodable value, which Validate's registry construction
		// would have rejected first.
		panic(fmt.Sprintf("scenario: canonical dump failed: %v", err))
	}
	return append(b, '\n')
}

func hexSHA256(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
