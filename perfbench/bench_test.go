package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"netcrafter/internal/cluster"
	"netcrafter/internal/comm"
	"netcrafter/internal/flow"
	"netcrafter/internal/topo"
)

// spec is the part of BENCHMARK.json the program must agree with.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one whole workload at tiny size (one untraced run, plus
// one traced run with trace) and returns the printed output.
func runTiny(t *testing.T, w workloadDef, trace bool) (string, result) {
	t.Helper()
	o := options{workload: w.Name, seed: defaultSeed, trace: trace, outDir: t.TempDir(), size: tinySize}
	rep, err := runWorkload(o, w, references(o.seed, o.size), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.print(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, buf.String())
	}
	return buf.String(), res
}

// TestEveryMetricPrintsWithUnit runs every workload untraced and traced
// and checks the result line carries exactly the metrics BENCHMARK.json
// names, each with its unit, and that each is also printed readably.
func TestEveryMetricPrintsWithUnit(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.Name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Fatalf("workloads: BENCHMARK.json %v, program %v", names, have)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			out, res := runTiny(t, w, trace)
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.Name, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(out, m.Name+" ") {
					t.Errorf("%s trace=%v: %s missing from the readable output", w.Name, trace, m.Name)
				}
			}
			if !trace {
				for _, m := range s.EndToEnd {
					if v := res.Metrics[m.Name].Value; !(v > 0) {
						t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, m.Name, v)
					}
				}
			}
		}
	}
}

// TestPerturbedFingerprintFails checks that a wrong expected fingerprint
// fails the cell and the run, rather than passing.
func TestPerturbedFingerprintFails(t *testing.T) {
	w, _ := workloadByName("gups-8x4")
	c := w.cells(defaultSeed, tinySize)[0]
	r := runCell(c, nil, nil)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if again := runCell(c, nil, &r.FP); again.Err != nil {
		t.Fatalf("same inputs, own fingerprint: %v", again.Err)
	}
	bad := r.FP
	bad.Cycles++
	got := runCell(c, nil, &bad)
	if got.Err == nil || !strings.Contains(got.Err.Error(), "fingerprint mismatch") {
		t.Fatalf("perturbed fingerprint: err = %v, want a mismatch", got.Err)
	}
	if entry := fmt.Sprintf("{Cycles:%d, ", r.FP.Cycles); !strings.Contains(got.Err.Error(), entry) {
		t.Errorf("mismatch message does not give got as a table entry (%q):\n%v", entry, got.Err)
	}

	o := options{workload: w.Name, seed: defaultSeed, outDir: t.TempDir(), size: tinySize}
	rep, err := runWorkload(o, w, map[string]fingerprint{c.ID: bad}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != rep.attempted {
		t.Fatalf("run against a perturbed fingerprint: %d of %d cells failed, want all", rep.failed, rep.attempted)
	}
	var buf bytes.Buffer
	rep.print(&buf)
	if !strings.Contains(buf.String(), `"correct":false`) {
		t.Fatalf("result does not report the failure:\n%s", buf.String())
	}
}

// TestShardedChecksAgainstSerial runs the sharded workload at a seed
// with no recorded fingerprint: it must take the serial run of the same
// inputs as its reference and match it.
func TestShardedChecksAgainstSerial(t *testing.T) {
	w, _ := workloadByName("gups-8x4-sharded")
	o := options{workload: w.Name, seed: 3, outDir: t.TempDir(), size: tinySize}
	refs := map[string]fingerprint{}
	rep, err := runWorkload(o, w, refs, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 || rep.attempted != 2 {
		t.Fatalf("attempted %d failed %d, want the serial reference plus one sharded cell, none failed", rep.attempted, rep.failed)
	}
	serial, _ := workloadByName("gups-8x4")
	if r := runCell(serial.cells(3, tinySize)[0], nil, nil); r.FP != refs["gups-8x4"] {
		t.Fatalf("sharded reference %v, serial run %v", refs["gups-8x4"], r.FP)
	}
}

// TestSeedChangesInputs checks that the seed is the only source of
// input variation: the same seed gives the same inputs and outcome, a
// different seed different ones.
func TestSeedChangesInputs(t *testing.T) {
	for _, w := range workloads {
		a, b := w.cells(1, tinySize), w.cells(2, tinySize)
		if !reflect.DeepEqual(a, w.cells(1, tinySize)) {
			t.Errorf("%s: same seed, different cells", w.Name)
		}
		if w.Name != "collective-512-flow" && reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 give the same cells", w.Name)
		}
	}

	// Workload cells: the seed drives the wave address streams.
	gups, _ := workloadByName("gups-8x4")
	r1 := runCell(gups.cells(1, tinySize)[0], nil, nil)
	r1again := runCell(gups.cells(1, tinySize)[0], nil, nil)
	r2 := runCell(gups.cells(2, tinySize)[0], nil, nil)
	if r1.FP != r1again.FP {
		t.Errorf("gups: same seed, different outcomes %v / %v", r1.FP, r1again.FP)
	}
	if r1.FP == r2.FP {
		t.Errorf("gups: seeds 1 and 2 simulate the same thing: %v", r1.FP)
	}

	// Serving cells: the seed drives arrivals and request placement.
	serve, _ := workloadByName("serve-8x4")
	plan := func(seed uint64) *comm.Plan {
		sc := serve.cells(seed, tinySize)[0].CScale
		sc.GPUs = 8
		p, err := comm.ByName("serve-poisson", sc)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if reflect.DeepEqual(plan(1), plan(2)) {
		t.Error("serve: seeds 1 and 2 generate the same plan")
	}

	// Flow cells: the collectives take no randomness, so the seed does
	// not reach them.
	coll, _ := workloadByName("collective-512-flow")
	if !reflect.DeepEqual(coll.cells(1, tinySize), coll.cells(2, tinySize)) {
		t.Error("collective: the cells depend on the seed")
	}
}

// TestFlowCellMatchesClusterPath checks the benchmark's direct
// NewNetwork + Run calls reproduce the flow backend as cluster runs it.
func TestFlowCellMatchesClusterPath(t *testing.T) {
	g, err := topo.Preset("dragonfly-64")
	if err != nil {
		t.Fatal(err)
	}
	sc := comm.Tiny()
	sc.GPUs = len(g.Devices)
	cfg := cluster.WithNetCrafter().WithTopology(g)
	cfg.Backend = cluster.BackendFlow
	want, err := cluster.RunCommOne(cfg, "ring-allreduce", sc, cycleLimit)
	if err != nil {
		t.Fatal(err)
	}
	p, err := comm.ByName("ring-allreduce", sc)
	if err != nil {
		t.Fatal(err)
	}
	n, err := flow.NewNetwork(g, flow.Options{FlitBytes: cluster.WithNetCrafter().NetCrafter.FlitBytes})
	if err != nil {
		t.Fatal(err)
	}
	got, err := n.Run(p, cycleLimit)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || got.BytesMoved != want.BytesMoved {
		t.Fatalf("direct flow run: %d cycles %d bytes; cluster path: %d cycles %d bytes", got.Cycles, got.BytesMoved, want.Cycles, want.BytesMoved)
	}
}

// TestProfileRowsSumToRunTime checks the traced pass's host-time split:
// the prof.* rows plus prof.unattributed_s add up to cluster.run_s, and
// every span's parent is a span of the same cell.
func TestProfileRowsSumToRunTime(t *testing.T) {
	for _, name := range []string{"gups-8x4", "serve-8x4"} {
		w, _ := workloadByName(name)
		o := options{workload: name, seed: defaultSeed, trace: true, outDir: t.TempDir(), size: tinySize}
		rep, err := runWorkload(o, w, map[string]fingerprint{}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range rep.iterations {
			if !it.traced {
				continue
			}
			m := perLayerValues(it)
			sum := 0.0
			for _, d := range perLayer {
				if strings.HasPrefix(d.name, "prof.") {
					sum += m[d.name]
				}
			}
			if m["cluster.run_s"] <= 0 || math.Abs(sum-m["cluster.run_s"]) > 1e-9 {
				t.Errorf("%s: prof rows sum to %v, cluster.run_s %v", name, sum, m["cluster.run_s"])
			}
			if m["prof.sched_s"] <= 0 {
				t.Errorf("%s: prof.sched_s = %v, want the profiler on", name, m["prof.sched_s"])
			}
			ids := map[int]int{}
			for _, s := range it.spans {
				ids[s.ID] = s.Cell
			}
			for _, s := range it.spans {
				if cell, ok := ids[s.Parent]; s.Parent >= 0 && (!ok || cell != s.Cell) {
					t.Errorf("%s: span %s has parent %d outside its cell", name, s.Name, s.Parent)
				}
			}
		}
	}
}

func TestProfileGroup(t *testing.T) {
	for name, want := range map[string]string{
		"sched": "prof.sched_s", "sw3": "prof.switch_s", "swx": "prof.switch_s",
		"l.inter0": "prof.link_s", "nc2": "prof.core_s", "gpu5.t0": "prof.gpu_rdma_s",
		"gpu5.t1": "prof.gpu_mem_s", "gpu12.t3": "prof.gpu_mem_s", "comm.g3": "prof.comm_s",
		"comm2.g0": "prof.comm_s", "dram0": "",
	} {
		if got := profileGroup(name); got != want {
			t.Errorf("profileGroup(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestBadArgumentsPrintNoResult checks usage errors exit non-zero
// without a result line.
func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "gups-8x4", "--trace", "2"},
		{"--bogus"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}

// TestRecordedFingerprints checks every cell of every workload, the
// sharded GUPS cell included, against the table in check.go at the
// default seed and the benchmark's own size.
func TestRecordedFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every cell at small size")
	}
	ids := map[string]bool{}
	for _, w := range workloads {
		for _, c := range w.cells(defaultSeed, smallSize) {
			ids[c.ID] = true
			want, ok := recorded[c.ID]
			if !ok {
				t.Errorf("%s: %s: no recorded fingerprint", w.Name, c.ID)
				continue
			}
			if r := runCell(c, nil, &want); r.Err != nil {
				t.Errorf("%s: %s: %v", w.Name, c.ID, r.Err)
			}
		}
	}
	if len(ids) != len(recorded) {
		t.Errorf("%d recorded fingerprints for %d cell IDs", len(recorded), len(ids))
	}
}
