package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"

	"mccmesh/internal/stats"
	"mccmesh/internal/traffic"
)

// defaultSeed is the seed the reference hashes were recorded for.
const defaultSeed = 1

// referenceTrials is how many trials of each simulation workload the
// reference covers; more than a run of the default length reaches.
var referenceTrials = map[string]int{"churn32": 12, "static32": 12}

// reference is reference.json: per-trial result hashes of the simulation
// workloads for the default seed, recorded with `mccbench --record`. The
// hashes are recorded on the sequential engine and checked against the
// sharded one.
type reference struct {
	Seed      uint64              `json:"seed"`
	Workloads map[string][]string `json:"workloads"`
}

func referencePath() string { return filepath.Join(benchDir, "reference.json") }

// loadReference returns the recorded hashes of a workload for seed, or nil
// when the reference was recorded for another seed.
func loadReference(workload string, seed uint64) ([]string, error) {
	b, err := os.ReadFile(referencePath())
	if err != nil {
		return nil, err
	}
	var ref reference
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", referencePath(), err)
	}
	if ref.Seed != seed {
		return nil, nil
	}
	return ref.Workloads[workload], nil
}

// recordReference runs every simulation workload's reference trials for the
// default seed on the sequential engine, checks that the workload's own
// shard count gives the same hashes, and writes reference.json.
func recordReference() error {
	ref := reference{Seed: defaultSeed, Workloads: map[string][]string{}}
	for name, n := range referenceTrials {
		w, err := loadSim(name, defaultSeed)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			seed := w.trialSeed(i)
			h, err := w.hashOn(seed, 1)
			if err != nil {
				return fmt.Errorf("%s trial %d: %w", name, i, err)
			}
			if w.shards() > 1 {
				hs, err := w.hashOn(seed, w.shards())
				if err != nil {
					return fmt.Errorf("%s trial %d: %w", name, i, err)
				}
				if hs != h {
					return fmt.Errorf("%s trial %d: %d shards give %s, 1 shard %s", name, i, w.shards(), hs, h)
				}
			}
			ref.Workloads[name] = append(ref.Workloads[name], h)
			fmt.Fprintf(os.Stderr, "mccbench: %s trial %d %s\n", name, i, h)
		}
	}
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(referencePath(), append(b, '\n'), 0o644)
}

// hashOn sets up and runs one trial on the given shard count and hashes it.
func (w *simWorkload) hashOn(seed uint64, shards int) (string, error) {
	t, err := w.setup(seed, shards)
	if err != nil {
		return "", err
	}
	res, _ := w.run(t, seed, shards, false)
	if res.Err != nil {
		return "", res.Err
	}
	if !ledgerBalances(res) {
		return "", fmt.Errorf("packet ledger does not balance: %s", summary(res))
	}
	return resultHash(res), nil
}

// resultHash fingerprints a simulated result: the packet ledger, the latency
// and hop histograms, the churn phase ledger and the final time. It leaves
// out the event count, so a change that saves events keeps its hashes.
func resultHash(r *traffic.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "offered %d skipped %d injected %d delivered %d stuck %d lost %d\n",
		r.Offered, r.Skipped, r.Injected, r.Delivered, r.Stuck, r.Lost)
	fmt.Fprintf(h, "measured %d %d healthy %d final %d\n",
		r.MeasuredInjected, r.MeasuredDelivered, r.HealthyNodes, r.FinalTime)
	fmt.Fprintf(h, "churn %d %d %d %d\n", r.Failures, r.Repairs, r.FailedNodes, r.RepairedNodes)
	hashHistogram(h, "latency", &r.Latency)
	hashHistogram(h, "hops", &r.Hops)
	for _, p := range r.Phases {
		fmt.Fprintf(h, "phase %d %d %d %d %d\n", p.Start, p.End, p.Healthy, p.Delivered, p.LatencySum)
	}
	return hex.EncodeToString(h.Sum(nil))[:24]
}

// hashHistogram writes every (value, cumulative count) step of a histogram.
// The histogram exposes only nearest-rank percentiles, so each step is found
// by binary search over ranks: rank r holds Percentile((r-0.5)/n).
func hashHistogram(h hash.Hash, name string, hist *stats.Histogram) {
	n := hist.N()
	fmt.Fprintf(h, "%s n %d\n", name, n)
	at := func(rank int64) int { return hist.Percentile((float64(rank) - 0.5) / float64(n)) }
	for r := int64(1); r <= n; {
		v := at(r)
		lo, hi := r, n // the last rank holding v is in [lo, hi]
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if at(mid) == v {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		fmt.Fprintf(h, "%d:%d ", v, lo)
		r = lo + 1
	}
	fmt.Fprintln(h)
}
