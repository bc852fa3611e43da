package main

import (
	"fmt"

	"netcrafter/internal/comm"
	"netcrafter/internal/sim"
	"netcrafter/internal/workload"
)

// Seeds. The default seed is the one the fingerprint table in check.go
// was recorded at. The held-back seed is never used while developing a
// change: run it once, after the change is written, to confirm a claim
// made on other seeds.
const (
	defaultSeed  = 1
	heldBackSeed = 7919
)

// cycleLimit bounds every cycle-level run and flow solve (the same
// budget the sweep harness uses); no benchmark cell comes near it.
const cycleLimit sim.Cycle = 200_000_000

// cellKind selects which layers a cell drives.
type cellKind int

const (
	// kindWorkload: a memory-trace workload on the cycle engine
	// (topo, workload, cluster; sim, gpu, cache, core, network inside).
	kindWorkload cellKind = iota
	// kindServe: a communication program injected on the cycle engine
	// (topo, comm, cluster; the comm injectors bypass CU/L1/TLB).
	kindServe
	// kindFlow: a communication program solved by the flow backend
	// (topo, comm, flow; no cycle engine).
	kindFlow
)

// cellSpec is one simulation the benchmark times: everything the
// simulator is handed, all of it derived from the benchmark seed.
type cellSpec struct {
	// ID keys the fingerprint table. Cells that must simulate the same
	// thing share an ID (the sharded GUPS cell is checked against the
	// serial one).
	ID      string
	Kind    cellKind
	Preset  string
	Program string
	Shards  int
	// Seed is the input randomness: wave address streams
	// (kindWorkload) or arrival times and request placement
	// (kindServe, via CScale.Seed). Flow cells have none.
	Seed   uint64
	WScale workload.Scale
	CScale comm.Scale
}

// size is the input scale of a benchmark run. The benchmark runs at
// small; tests run the same cells at tiny.
type size struct {
	name    string
	wl      workload.Scale
	cm      comm.Scale
	fabrics []string // flow-backend fabrics of collective-512-flow
}

var (
	smallSize = size{"small", workload.Small(), comm.Small(), []string{"fattree-512", "dragonfly-512"}}
	tinySize  = size{"tiny", workload.Tiny(), comm.Tiny(), []string{"fattree-64", "dragonfly-64"}}
)

// workloadDef is one named benchmark workload: the cells one workload
// run executes, in order. README.md says why each workload is there.
type workloadDef struct {
	Name  string
	cells func(seed uint64, sz size) []cellSpec
}

// workloads lists the benchmark workloads. Their names are cited by
// later changes; do not rename them.
var workloads = []workloadDef{
	{
		Name:  "gups-8x4",
		cells: func(seed uint64, sz size) []cellSpec { return []cellSpec{gupsCell(seed, sz, 0)} },
	},
	{
		Name:  "gups-8x4-sharded",
		cells: func(seed uint64, sz size) []cellSpec { return []cellSpec{gupsCell(seed, sz, 2)} },
	},
	{
		Name: "serve-8x4",
		cells: func(seed uint64, sz size) []cellSpec {
			sc := sz.cm
			sc.Seed = seed
			return []cellSpec{{ID: "serve-8x4", Kind: kindServe, Preset: "frontier-8x4", Program: "serve-poisson", Seed: seed, CScale: sc}}
		},
	},
	{
		Name:  "collective-512-flow",
		cells: collectiveCells,
	},
}

func gupsCell(seed uint64, sz size, shards int) cellSpec {
	wl := sz.wl
	wl.Seed = seed
	return cellSpec{ID: "gups-8x4", Kind: kindWorkload, Preset: "frontier-8x4", Program: "GUPS", Shards: shards, Seed: seed, WScale: wl}
}

// collectiveCells is one flow cell per (fabric, program) pair. The
// collective generators take no randomness and the fabrics are
// symmetric, so these cells do not depend on the seed.
func collectiveCells(_ uint64, sz size) []cellSpec {
	var cells []cellSpec
	for _, fab := range sz.fabrics {
		for _, prog := range []string{"ring-allreduce", "alltoall"} {
			cells = append(cells, cellSpec{
				ID:      fab + "/" + prog,
				Kind:    kindFlow,
				Preset:  fab,
				Program: prog,
				CScale:  sz.cm,
			})
		}
	}
	return cells
}

// workloadByName finds a workload definition.
func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
