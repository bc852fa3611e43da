package main

import (
	"fmt"
	"strings"
)

// fingerprint is a cell's simulated outcome. It is exact and does not
// depend on the host, so it pins the simulated behaviour while host
// time changes: a change that moves any field changed what is
// simulated, not how fast.
type fingerprint struct {
	Cycles                                            int64 // engine cycles advanced, or the flow makespan
	Flits, Stitched, Trimmed, Pooled, PTWFlits, WireB int64 // NetCrafter controllers, summed
	RemoteReads, RemoteWrites                         int64
	P50, P99, Makespan                                int64 // comm request latencies and plan makespan
}

func (f fingerprint) String() string {
	return fmt.Sprintf("cycles=%d flits=%d stitched=%d trimmed=%d pooled=%d ptw=%d wireB=%d reads=%d writes=%d p50=%d p99=%d makespan=%d",
		f.Cycles, f.Flits, f.Stitched, f.Trimmed, f.Pooled, f.PTWFlits, f.WireB,
		f.RemoteReads, f.RemoteWrites, f.P50, f.P99, f.Makespan)
}

// recorded holds every cell's fingerprint at the default seed and the
// small size, keyed by cell ID. The sharded GUPS cell shares the serial
// cell's ID, so it is checked against the serial fingerprint. After an
// intended change to what is simulated, paste the "got" entries that
// TestRecordedFingerprints reports over the old ones.
var recorded = map[string]fingerprint{
	"gups-8x4":                     {Cycles: 83577, Flits: 177259, Stitched: 10003, Trimmed: 103428, Pooled: 42380, PTWFlits: 42388, WireB: 2836144, RemoteReads: 40173, RemoteWrites: 8071, P50: 0, P99: 0, Makespan: 0},
	"serve-8x4":                    {Cycles: 216748, Flits: 481860, Stitched: 24909, Trimmed: 0, Pooled: 82810, PTWFlits: 0, WireB: 7709760, RemoteReads: 0, RemoteWrites: 98304, P50: 14796, P99: 37699, Makespan: 216747},
	"fattree-512/ring-allreduce":   {Cycles: 47012, Flits: 0, Stitched: 0, Trimmed: 0, Pooled: 0, PTWFlits: 0, WireB: 0, RemoteReads: 0, RemoteWrites: 0, P50: 0, P99: 0, Makespan: 47012},
	"fattree-512/alltoall":         {Cycles: 699478, Flits: 0, Stitched: 0, Trimmed: 0, Pooled: 0, PTWFlits: 0, WireB: 0, RemoteReads: 0, RemoteWrites: 0, P50: 0, P99: 0, Makespan: 699478},
	"dragonfly-512/ring-allreduce": {Cycles: 42924, Flits: 0, Stitched: 0, Trimmed: 0, Pooled: 0, PTWFlits: 0, WireB: 0, RemoteReads: 0, RemoteWrites: 0, P50: 0, P99: 0, Makespan: 42924},
	"dragonfly-512/alltoall":       {Cycles: 235505, Flits: 0, Stitched: 0, Trimmed: 0, Pooled: 0, PTWFlits: 0, WireB: 0, RemoteReads: 0, RemoteWrites: 0, P50: 0, P99: 0, Makespan: 235505},
}

// references returns the fingerprints a run checks its cells against:
// the recorded table at the default seed and small size, nothing
// otherwise (the run then takes each cell's first result as its
// reference, so every repeat must reproduce it exactly).
func references(seed uint64, sz size) map[string]fingerprint {
	refs := map[string]fingerprint{}
	if seed == defaultSeed && sz.name == smallSize.name {
		for k, v := range recorded {
			refs[k] = v
		}
	}
	return refs
}

// checkFingerprint fails when a cell's outcome differs from its
// reference. The message gives got as a table entry for recorded.
func checkFingerprint(got, want fingerprint) error {
	if got != want {
		return fmt.Errorf("fingerprint mismatch:\n  got  %s\n  want %v", strings.TrimPrefix(fmt.Sprintf("%#v", got), "main.fingerprint"), want)
	}
	return nil
}
