// Command perfbench is the repository benchmark. It drives the
// simulator from outside, through the public functions of topo,
// workload, comm, cluster and flow, one cell at a time in one process,
// and times each call. Inputs come from --seed; every cell's output is
// checked (audit, conservation, fingerprint) and a failed check counts
// as a failed cell. The last line of standard output is one JSON object:
// the end-to-end metrics, or with --trace 1 the per-layer metrics of a
// traced pass. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
	size     size
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: gups-8x4 | gups-8x4-sharded | serve-8x4 | collective-512-flow")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf("input seed (fingerprints are recorded at %d; %d is held back for confirming claims)", defaultSeed, heldBackSeed))
	fs.Float64Var(&o.seconds, "seconds", 10, "measure whole workload runs for up to this many host seconds (at least one run)")
	traceN := fs.Int("trace", 0, "1: alternate untraced and traced workload runs and report the per-layer metrics")
	fs.StringVar(&o.outDir, "out", ".bench_build", "directory the traced pass writes its span file to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *traceN != 0 && *traceN != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = *traceN == 1
	o.size = smallSize
	rep, err := runWorkload(o, w, references(o.seed, o.size), stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.print(stdout)
	return 0
}

// iteration is one workload run: every cell of the workload once.
type iteration struct {
	traced bool
	cells  []cellResult
	spans  []span
}

// report is everything one invocation measured.
type report struct {
	opt        options
	attempted  int
	failed     int
	iterations []iteration
	shards     int
	spanFile   string
}

func (rep *report) count(r cellResult, log io.Writer) {
	rep.attempted++
	if r.Err != nil {
		rep.failed++
		fmt.Fprintf(log, "perfbench: cell %s failed: %v\n", r.Spec.ID, r.Err)
	}
}

// runWorkload repeats whole workload runs until the time is up,
// checking each cell against refs (cell ID -> fingerprint; cells with no
// entry are checked against their first result). With tracing, untraced
// and traced runs alternate so both see the same host conditions;
// end-to-end metrics only ever come from untraced runs.
func runWorkload(o options, w workloadDef, refs map[string]fingerprint, log io.Writer) (*report, error) {
	specs := w.cells(o.seed, o.size)
	rep := &report{opt: o, shards: 1}
	for _, c := range specs {
		if c.Shards > rep.shards {
			rep.shards = c.Shards
		}
		// A sharded cell with no recorded fingerprint is checked against
		// the same inputs run on the serial engine.
		if _, ok := refs[c.ID]; !ok && c.Shards > 1 {
			serial := c
			serial.Shards = 0
			r := runCell(serial, nil, nil)
			rep.count(r, log)
			if r.Err == nil {
				refs[c.ID] = r.FP
			}
		}
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	start := time.Now()
	for i := 0; ; i++ {
		it := iteration{traced: o.trace && i%2 == 1}
		var itTr *tracer
		if it.traced {
			itTr = tr
		}
		first := tr.nextCell()
		for _, c := range specs {
			var want *fingerprint
			if fp, ok := refs[c.ID]; ok {
				want = &fp
			}
			r := runCell(c, itTr, want)
			rep.count(r, log)
			if want == nil && r.Err == nil {
				refs[c.ID] = r.FP
			}
			it.cells = append(it.cells, r)
		}
		if it.traced {
			it.spans = tr.cellSpans(first, tr.nextCell()-1)
		}
		rep.iterations = append(rep.iterations, it)
		minRuns := 1
		if o.trace {
			minRuns = 2
		}
		// Stop when another run of average length would overrun.
		elapsed := time.Since(start).Seconds()
		if len(rep.iterations) >= minRuns && elapsed*float64(len(rep.iterations)+1)/float64(len(rep.iterations)) > o.seconds {
			break
		}
	}
	if tr != nil {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, err
		}
		rep.spanFile = filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.Name, o.seed))
		if err := tr.write(rep.spanFile); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// metric is a named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, per workload
// run, from untraced runs only.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"sim_cycles_per_s", "1/s"},
	{"peak_mem_mb", "MB"},
	{"alloc_mb", "MB"},
}

// endToEndValues computes the end-to-end metrics of one workload run.
func endToEndValues(it iteration) map[string]float64 {
	var wall, setup, simT time.Duration
	var cycles int64
	var alloc, peak uint64
	for _, c := range it.cells {
		wall += c.Wall
		setup += c.Setup
		simT += c.Sim
		cycles += c.Cycles
		alloc += c.AllocBytes
		if c.PeakRSS > peak {
			peak = c.PeakRSS
		}
	}
	return map[string]float64{
		"wall_s":           wall.Seconds(),
		"setup_s":          setup.Seconds(),
		"sim_cycles_per_s": float64(cycles) / simT.Seconds(),
		"peak_mem_mb":      float64(peak) / (1 << 20),
		"alloc_mb":         float64(alloc) / (1 << 20),
	}
}

// perLayer are the per-layer metrics of the traced pass. Layers a
// workload does not reach report 0.
var perLayer = []metricDef{
	{"topo.preset_s", "s"}, {"topo.routes_s", "s"}, {"topo.devices", "count"}, {"topo.links", "count"},
	{"comm.gen_s", "s"}, {"comm.sends", "count"}, {"comm.bytes", "bytes"},
	{"flow.network_s", "s"}, {"flow.network_alloc_mb", "MB"}, {"flow.solve_s", "s"}, {"flow.ns_per_send", "ns"},
	{"workload.gen_s", "s"}, {"workload.wavefronts", "count"},
	{"cluster.build_s", "s"}, {"sim.components", "count"},
	{"cluster.run_s", "s"}, {"cluster.run_alloc_mb", "MB"}, {"host.gc_cycles", "count"},
	{"sim.rounds", "count"}, {"sim.round_ratio", "ratio"}, {"sim.ns_per_round", "ns"},
	{"shard.count", "count"}, {"shard.boundary_flits", "count"}, {"shard.ns_per_round", "ns"},
	{"cluster.audit_s", "s"},
	{"gpu.instructions", "count"}, {"gpu.remote_reads", "count"}, {"gpu.remote_writes", "count"},
	{"cache.l1_accesses", "count"}, {"cache.l1_misses", "count"}, {"cache.l1_hit_ratio", "ratio"},
	{"core.flits", "count"}, {"core.flits_stitched", "count"}, {"core.flits_trimmed", "count"},
	{"core.flits_pooled", "count"}, {"core.ptw_flits", "count"}, {"core.wire_bytes", "bytes"},
	{"core.stitch_ratio", "ratio"},
	{"network.inter_util", "ratio"}, {"network.inter_read_lat_cy", "cycles"}, {"network.intra_read_lat_cy", "cycles"},
	{"comm.p50_cy", "cycles"}, {"comm.p99_cy", "cycles"}, {"comm.line_writes", "count"},
	{"prof.sched_s", "s"}, {"prof.switch_s", "s"}, {"prof.link_s", "s"}, {"prof.core_s", "s"},
	{"prof.gpu_rdma_s", "s"}, {"prof.gpu_mem_s", "s"}, {"prof.comm_s", "s"}, {"prof.unattributed_s", "s"},
	{"self.bench_s", "s"}, {"self.topo_s", "s"}, {"self.workload_s", "s"}, {"self.comm_s", "s"},
	{"self.cluster_s", "s"}, {"self.flow_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

// perLayerValues computes the per-layer metrics of one traced workload
// run: counts summed over its cells, call timings and self times from
// its spans, and the ratios derived from them.
func perLayerValues(it iteration) map[string]float64 {
	m := spanMetrics(it.spans)
	for _, c := range it.cells {
		for k, v := range c.Counts {
			m[k] += v
		}
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var cycles float64
	for _, c := range it.cells {
		cycles += float64(c.Cycles)
	}
	m["flow.ns_per_send"] = div(m["flow.solve_s"]*1e9, m["comm.sends"])
	m["sim.round_ratio"] = div(m["sim.rounds"], cycles)
	m["sim.ns_per_round"] = div(m["cluster.run_s"]*1e9, m["sim.rounds"])
	if m["shard.count"] > 1 {
		m["shard.ns_per_round"] = m["sim.ns_per_round"]
	}
	m["cache.l1_hit_ratio"] = div(m["cache.l1_accesses"]-m["cache.l1_misses"], m["cache.l1_accesses"])
	m["core.stitch_ratio"] = div(m["core.flits_stitched"], m["core.flits"])
	prof := 0.0
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "prof.") && d.name != "prof.unattributed_s" {
			prof += m[d.name]
		}
	}
	if m["cluster.run_s"] > 0 {
		m["prof.unattributed_s"] = m["cluster.run_s"] - prof
	}
	return m
}

// median returns the middle value (mean of the two middle values for an
// even count).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// tail returns the highest of the usual percentiles that has at least
// ten samples beyond it, and its nearest-rank value; ok is false when
// there are too few samples for any.
func tail(v []float64) (pct, val float64, ok bool) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if float64(len(s))*(1-p/100) >= 10 {
			rank := int(math.Ceil(p / 100 * float64(len(s))))
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}

// series collects each named metric over the selected workload runs.
func (rep *report) series(traced bool, f func(iteration) map[string]float64) map[string][]float64 {
	out := map[string][]float64{}
	for _, it := range rep.iterations {
		if it.traced != traced {
			continue
		}
		for k, v := range f(it) {
			out[k] = append(out[k], v)
		}
	}
	return out
}

// provenance describes where and how the numbers were taken.
type provenance struct {
	Git        string  `json:"git"`
	Dirty      bool    `json:"dirty"`
	Go         string  `json:"go"`
	HostCPUs   int     `json:"host_cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workload   string  `json:"workload"`
	Size       string  `json:"size"`
	Seed       uint64  `json:"seed"`
	HeldBack   uint64  `json:"held_back_seed"`
	Shards     int     `json:"shards"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
}

func (rep *report) provenance() provenance {
	p := provenance{
		Git: "unknown", Go: runtime.Version(), HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload: rep.opt.workload, Size: rep.opt.size.name, Seed: rep.opt.seed, HeldBack: heldBackSeed,
		Shards: rep.shards, Trace: rep.opt.trace, Seconds: rep.opt.seconds,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Git = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes the provenance, one human-readable line per metric with
// its sample count and tail percentile where there are enough samples,
// and last the JSON result.
func (rep *report) print(w io.Writer) {
	prov, _ := json.Marshal(rep.provenance())
	fmt.Fprintf(w, "provenance %s\n", prov)
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}

	e2e := rep.series(false, endToEndValues)
	for _, d := range endToEnd {
		v := e2e[d.name]
		lo, hi := minMax(v)
		line := fmt.Sprintf("%-22s median %-14.6g %-6s n=%d min %.6g max %.6g", d.name, median(v), d.unit, len(v), lo, hi)
		if p, t, ok := tail(v); ok {
			line += fmt.Sprintf(" p%g=%.6g", p, t)
		}
		fmt.Fprintln(w, line)
		if !rep.opt.trace {
			res.Metrics[d.name] = metric{median(v), d.unit}
		}
	}
	if rep.opt.trace {
		layer := rep.series(true, perLayerValues)
		wall := rep.series(true, endToEndValues)["wall_s"]
		for _, d := range perLayer {
			val := median(layer[d.name])
			if d.name == "trace.overhead_frac" {
				val = median(wall)/median(e2e["wall_s"]) - 1
			}
			if math.IsNaN(val) {
				val = 0
			}
			fmt.Fprintf(w, "%-26s median %-14.6g %-6s n=%d\n", d.name, val, d.unit, len(wall))
			res.Metrics[d.name] = metric{val, d.unit}
		}
		fmt.Fprintf(w, "spans written to %s\n", rep.spanFile)
	}
	out, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", out)
}
