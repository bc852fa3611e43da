// Command netcrafter-sim runs one workload on one system configuration
// and prints the measured statistics.
//
// Usage:
//
//	netcrafter-sim [-workload GUPS] [-config baseline|ideal|netcrafter|sector]
//	               [-scale tiny|small|medium] [-inter 16] [-intra 128]
//	               [-topo preset|spec.json] [-topo-list] [-topo-info] [-dot FILE]
//	               [-pool 32] [-flit 16] [-seed 1] [-v]
//	               [-trace FILE] [-spans FILE] [-metrics FILE]
//	               [-timeline FILE] [-heatmap] [-profile-components]
//	               [-inflight-dump] [-shards N]
//	               [-comm ring-allreduce] [-comm-bytes N] [-qps N]
//	               [-requests N] [-comm-export FILE] [-comm-replay FILE]
//	               [-backend cycle|flow]
//
// -shards partitions the simulation at cluster boundaries and runs each
// partition's engine on its own goroutine, in lockstep (DESIGN.md
// section 2.15). Results are bit-identical to the serial engine at any
// shard count; only wall-clock changes, so use it on multi-core hosts
// with multi-cluster topologies. Shard counts above the cluster count
// clamp down. The simulator itself refuses what a sharded run cannot
// serve — the observability flags (-trace, -spans, -metrics,
// -timeline, -heatmap) attach shared sinks, and the -comm modes
// register global injectors — and the error names the serial engine.
//
// -backend selects the simulation fidelity. The default cycle backend
// ticks every flit through the real switches and controllers; the
// flow backend solves communication plans analytically as max-min
// fair fluid flows (DESIGN.md section 2.14) — orders of magnitude
// faster, but it models plans only: a workload, an observability flag,
// -inflight-dump or -profile-components needs a ticked system, which
// the flow backend refuses to build ("needs the cycle backend"). See
// the ext-calibrate bench experiment for its measured error.
//
// Workload and comm runs take one path: build the ticked system,
// attach the requested sinks, run. The CLI keeps no table of which
// flags combine; the one rule of its own is that -timeline and
// -heatmap need a single -workload.
//
// -comm runs a communication program instead of a workload: a
// collective (ring-allreduce, tree-allreduce, alltoall, pipeline,
// tensor) or an open-loop serving generator (serve-poisson,
// serve-burst) whose per-request p50/p99/p999 latency table is
// printed after the run. "-comm list" lists the programs. -comm-bytes,
// -qps and -requests override the scale preset's buffer size, offered
// load and request count. -comm-export writes the generated plan as a
// JSONL trace ({"t":cycle,"src":gpu,"dst":gpu,"bytes":n,...});
// -comm-replay executes such a trace instead of generating a plan —
// replaying an exported trace reproduces the generator's metrics
// exactly. Every observability flag, -inflight-dump and
// -profile-components compose with -comm as with a workload.
//
// Without -topo the fabric is the paper's 4-GPU/2-cluster node, its
// link bandwidths set by -config, -intra and -inter (GB/s) and
// converted to flits/cycle at the -flit size. -topo replaces it with a
// named preset (see -topo-list) or a JSON topology spec file; link
// bandwidths then come from the graph, so -inter/-intra with -topo are
// an error. -dot renders the
// selected topology as Graphviz dot to FILE ("-" = stdout) and exits.
// -topo-info prints the fabric's shape — device/switch/link/cluster
// counts, boundary links, bandwidth taper points — then builds the
// system and reports the spliced controller and guarded-link counts,
// and exits; on a correct build, controllers always equals
// taper-points (the scale-smoke CI check greps exactly that).
//
// -spans streams one JSON line per finished packet span to FILE and
// prints the per-stage latency breakdown table; -metrics writes a
// Prometheus-style snapshot of the metrics registry to FILE after the
// run.
//
// -timeline records the run's event timeline — per-component engine
// execute slices, cycle-windowed link utilization and queue occupancy,
// and per-transaction state dwells — and writes it as Chrome Trace
// Event JSON to FILE, viewable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. -heatmap prints the per-link congestion heatmap
// (utilization per cycle window, hottest links ranked) after the run;
// both need a single -workload. -profile-components enables the engine
// self-profiler and prints where host time went per simulated
// component.
//
// -timeline, -spans, -metrics and -dot accept "-" for stdout. Output
// files are opened before the simulation starts, so an unwritable path
// fails immediately with a non-zero exit instead of after minutes of
// simulation.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"netcrafter"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams injected and its exit code returned, so
// the whole flag matrix is testable in-process.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("netcrafter-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl     = fs.String("workload", "GUPS", "workload name or 'all' (see -list)")
		cfgSel = fs.String("config", "netcrafter", "baseline | ideal | netcrafter | sector")
		backF  = fs.String("backend", "cycle", "simulation backend: cycle | flow (flow needs -comm; analytic, no per-flit fidelity)")
		scale  = fs.String("scale", "small", "tiny | small | medium")
		inter  = fs.Int("inter", 0, "override inter-cluster GB/s")
		intra  = fs.Int("intra", 0, "override intra-cluster GB/s")
		topoF  = fs.String("topo", "", "topology preset name or JSON spec file (see -topo-list)")
		topoL  = fs.Bool("topo-list", false, "list topology presets and exit")
		topoI  = fs.Bool("topo-info", false, "print the -topo fabric's shape (nodes, links, taper points, controllers) and exit")
		dotF   = fs.String("dot", "", "write the -topo graph as Graphviz dot to this file ('-' = stdout) and exit")
		pool   = fs.Int("pool", -1, "override Flit Pooling window (cycles)")
		flitSz = fs.Int("flit", 0, "override flit size in bytes (8 or 16)")
		seed   = fs.Uint64("seed", 1, "workload seed")
		list   = fs.Bool("list", false, "list workloads and exit")
		verb   = fs.Bool("v", false, "verbose per-type traffic breakdown")
		traceF = fs.String("trace", "", "write a JSON-lines wire trace to this file")
		spansF = fs.String("spans", "", "write packet lifecycle spans (JSONL) to this file ('-' = stdout) and print the latency breakdown")
		metF   = fs.String("metrics", "", "write a Prometheus-style metrics snapshot to this file ('-' = stdout)")
		tlF    = fs.String("timeline", "", "write a Chrome Trace Event JSON timeline to this file ('-' = stdout; open in Perfetto or chrome://tracing)")
		heat   = fs.Bool("heatmap", false, "print the per-link congestion heatmap after the run")
		prof   = fs.Bool("profile-components", false, "enable the engine self-profiler and print the per-component host-time table")
		inFlt  = fs.Bool("inflight-dump", false, "dump the live transaction tables after each run; on a run-limit error, also print the stuck-transaction watchdog report")
		commF  = fs.String("comm", "", "run a communication program instead of a workload ('list' = list programs)")
		commB  = fs.Int("comm-bytes", 0, "override the comm buffer size in bytes")
		qps    = fs.Float64("qps", 0, "override the serving programs' offered load (queries/sec)")
		reqs   = fs.Int("requests", 0, "override the serving programs' request count")
		commX  = fs.String("comm-export", "", "write the generated comm plan as a JSONL trace to this file ('-' = stdout)")
		commR  = fs.String("comm-replay", "", "execute a JSONL comm trace instead of generating a plan")
		shards = fs.Int("shards", 0, "partition the simulation across N engine goroutines (0/1 = serial; bit-identical results, cycle backend only)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "netcrafter-sim:", err)
		return 1
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(netcrafter.Workloads(), "\n"))
		return 0
	}
	if *topoL {
		fmt.Fprintln(stdout, strings.Join(netcrafter.TopologyPresets(), "\n"))
		return 0
	}

	backend, err := netcrafter.ParseBackend(*backF)
	if err != nil {
		return fail(err)
	}

	cfg, intraGBps, interGBps, err := pickConfig(*cfgSel)
	if err != nil {
		return fail(err)
	}
	cfg.Backend = backend
	if *topoF != "" {
		if *inter > 0 || *intra > 0 {
			return fail(fmt.Errorf("-inter and -intra set the default fabric's bandwidths; a -topo fabric carries its own link rates"))
		}
		g, err := netcrafter.LoadTopology(*topoF)
		if err != nil {
			return fail(err)
		}
		cfg = cfg.WithTopology(g)
	}
	if *topoI {
		if *topoF == "" {
			return fail(fmt.Errorf("-topo-info needs -topo"))
		}
		return runTopoInfo(cfg, stdout, stderr)
	}
	if *dotF != "" {
		if *topoF == "" {
			return fail(fmt.Errorf("-dot needs -topo"))
		}
		w, closeW, err := openOut(*dotF, stdout)
		if err != nil {
			return fail(err)
		}
		if _, err := io.WriteString(w, cfg.Topo.DOT()); err != nil {
			return fail(err)
		}
		if err := closeW(); err != nil {
			return fail(err)
		}
		return 0
	}
	if *pool >= 0 {
		cfg.NetCrafter.PoolingCycles = netcrafter.Cycle(*pool)
	}
	if *flitSz > 0 {
		cfg.NetCrafter.FlitBytes = *flitSz
		cfg.GPU.FlitBytes = *flitSz
	}
	if *topoF == "" {
		// The default fabric is the paper's 4-GPU/2-cluster node at the
		// selected bandwidths, converted at the selected flit size.
		if *inter > 0 {
			interGBps = *inter
		}
		if *intra > 0 {
			intraGBps = *intra
		}
		node, err := netcrafter.PaperTopology(4, 2, intraGBps, interGBps, cfg.NetCrafter.FlitBytes)
		if err != nil {
			return fail(err)
		}
		cfg = cfg.WithTopology(node)
	}
	cfg.Seed = *seed
	cfg.Profile = *prof
	cfg.Shards = *shards

	sc, err := pickScale(*scale)
	if err != nil {
		return fail(err)
	}
	sc.Seed = *seed

	if *commF == "list" {
		fmt.Fprintln(stdout, strings.Join(netcrafter.CommPrograms(), "\n"))
		return 0
	}
	// Workload and comm runs honour the same sinks; cluster refuses the
	// combinations a mode cannot serve.
	out := outputs{trace: *traceF, spans: *spansF, metrics: *metF, timeline: *tlF, heatmap: *heat}
	if *commF != "" || *commR != "" {
		return runCommMode(cfg, commFlags{
			prog: *commF, scale: *scale, bytes: *commB, qps: *qps,
			requests: *reqs, seed: *seed, export: *commX, replay: *commR,
			inflight: *inFlt, out: out,
		}, stdout, stderr)
	}

	names := []string{*wl}
	if *wl == "all" {
		names = netcrafter.Workloads()
	}
	// The timeline's tracks belong to one system instance, so timeline
	// exports only make sense for a single-workload run.
	if (*tlF != "" || *heat) && len(names) != 1 {
		return fail(fmt.Errorf("-timeline and -heatmap need a single -workload, not %d", len(names)))
	}

	// Open every output before simulating: an unwritable path must fail
	// now, not after the run.
	if err := out.open(stdout); err != nil {
		return fail(err)
	}

	for _, name := range names {
		var res *netcrafter.Result
		sys, err := runTicked(cfg, &out, *inFlt, name, stdout, stderr, func(sys *netcrafter.System) (err error) {
			res, err = netcrafter.RunOnSystem(sys, name, sc, 500_000_000)
			return err
		})
		if err != nil {
			return fail(err)
		}
		printResult(stdout, res, *verb)
		if err := printProfile(stdout, sys); err != nil {
			return fail(err)
		}
	}
	if err := out.finish(stdout); err != nil {
		return fail(err)
	}
	return 0
}

// runTopoInfo is the -topo-info path: report the fabric's static shape
// off the graph, then build the system and report what the build
// actually spliced in. The two views agree by construction —
// controllers == taper-points on every valid fabric — which is what
// the scale-smoke CI target checks.
func runTopoInfo(cfg netcrafter.Config, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "netcrafter-sim:", err)
		return 1
	}
	g := cfg.Topo
	taper, err := netcrafter.TopologyTaperPoints(g)
	if err != nil {
		return fail(err)
	}
	boundary := 0
	for _, l := range g.Links {
		if g.Boundary(l) {
			boundary++
		}
	}
	// The splice structure is backend- and shard-independent; build the
	// plain serial system to count it.
	cfg.Backend = netcrafter.BackendCycle
	cfg.Shards = 0
	sys, err := netcrafter.BuildSystem(cfg)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "devices: %d\n", len(g.Devices))
	fmt.Fprintf(stdout, "switches: %d\n", len(g.Switches))
	fmt.Fprintf(stdout, "links: %d\n", len(g.Links))
	fmt.Fprintf(stdout, "clusters: %d\n", g.NumClusters())
	fmt.Fprintf(stdout, "boundary-links: %d\n", boundary)
	fmt.Fprintf(stdout, "taper-points: %d\n", taper)
	fmt.Fprintf(stdout, "controllers: %d\n", len(sys.Controllers))
	fmt.Fprintf(stdout, "inter-links: %d\n", len(sys.InterLinks))
	fmt.Fprintf(stdout, "taper-links: %d\n", len(sys.TaperLinks))
	return 0
}

// noClose is the close function of a stream the CLI does not own
// (stdout).
func noClose() error { return nil }

// openOut opens path for writing; "-" means the given stdout, which is
// never closed.
func openOut(path string, stdout io.Writer) (io.Writer, func() error, error) {
	if path == "-" {
		return stdout, noClose, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// outputs are a run's observability sinks, named by their flag
// values ("" = off, "-" = stdout). open creates every output file
// before the simulation starts, so an unwritable path fails at once
// instead of after the run; finish writes and closes them afterwards.
type outputs struct {
	trace, spans, metrics, timeline string
	heatmap                         bool

	rec     *netcrafter.TraceRecorder
	spanRec *netcrafter.SpanRecorder
	reg     *netcrafter.MetricsRegistry
	tl      *netcrafter.Timeline
	metOut  io.Writer
	tlOut   io.Writer
	// closeTrace..closeTl close the opened files (noClose for stdout).
	closeTrace, closeSpans, closeMet, closeTl func() error
}

// open creates the sinks and opens their files.
func (o *outputs) open(stdout io.Writer) error {
	var err error
	if o.trace != "" {
		var w io.Writer
		if w, o.closeTrace, err = openOut(o.trace, stdout); err != nil {
			return err
		}
		o.rec = netcrafter.NewTraceRecorder(w)
	}
	if o.metrics != "" {
		if o.metOut, o.closeMet, err = openOut(o.metrics, stdout); err != nil {
			return err
		}
		o.reg = netcrafter.NewMetricsRegistry()
	}
	if o.spans != "" {
		var w io.Writer
		if w, o.closeSpans, err = openOut(o.spans, stdout); err != nil {
			return err
		}
		o.spanRec = netcrafter.NewSpanRecorder(w)
	}
	if o.timeline != "" {
		if o.tlOut, o.closeTl, err = openOut(o.timeline, stdout); err != nil {
			return err
		}
	}
	if o.timeline != "" || o.heatmap {
		o.tl = netcrafter.NewTimeline(0)
	}
	return nil
}

// sinks returns the opened sinks for System.Attach.
func (o *outputs) sinks() netcrafter.Sinks {
	return netcrafter.Sinks{Trace: o.rec, Metrics: o.reg, Spans: o.spanRec, Timeline: o.tl}
}

// runTicked builds the ticked system for cfg, attaches the opened
// sinks, and runs fn on it. It then closes the timeline at the final
// cycle and, with inflight set, dumps the live transaction tables —
// after a failed run preceded by the stuck-transaction report for
// label. The system is returned even when fn fails.
func runTicked(cfg netcrafter.Config, out *outputs, inflight bool, label string, stdout, stderr io.Writer,
	fn func(*netcrafter.System) error) (*netcrafter.System, error) {
	sys, err := netcrafter.BuildSystem(cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.Attach(out.sinks()); err != nil {
		return nil, err
	}
	err = fn(sys)
	if out.tl != nil {
		out.tl.Finish(sys.Engine.Now())
	}
	if inflight {
		if err != nil {
			// A wedged run: the watchdog names the transactions that
			// stopped moving, with their stage history.
			fmt.Fprintf(stderr, "%s: %v; stuck-transaction report:\n", label, err)
			if sys.CheckStuck(stderr, 10_000) == 0 {
				fmt.Fprintln(stderr, "  (no transaction older than 10000 cycles)")
			}
		}
		sys.DumpInFlight(stdout)
	}
	return sys, err
}

// printProfile prints the engine self-profile of a Config.Profile run
// (-profile-components) after its result; other runs print nothing.
func printProfile(stdout io.Writer, sys *netcrafter.System) error {
	if !sys.Config().Profile {
		return nil
	}
	fmt.Fprintln(stdout)
	return netcrafter.WriteComponentProfile(stdout, sys.Profile())
}

// finish flushes every sink to its output, closes the files, and
// prints a summary line for each.
func (o *outputs) finish(stdout io.Writer) error {
	if o.rec != nil {
		if err := errors.Join(o.rec.Flush(), o.closeTrace()); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace: %d events written to %s\n", o.rec.Events(), o.trace)
	}
	if o.spanRec != nil {
		if err := errors.Join(o.spanRec.Flush(), o.closeSpans()); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nspans: %d recorded (%s)\n%s", o.spanRec.Spans(), o.spans, o.spanRec.Breakdown().Table())
	}
	if o.reg != nil {
		if err := errors.Join(o.reg.WriteProm(o.metOut), o.closeMet()); err != nil {
			return err
		}
		if o.metrics != "-" {
			fmt.Fprintf(stdout, "metrics: snapshot written to %s\n", o.metrics)
		}
	}
	if o.timeline != "" {
		if err := errors.Join(o.tl.WriteTrace(o.tlOut), o.closeTl()); err != nil {
			return err
		}
		if o.timeline != "-" {
			fmt.Fprintf(stdout, "timeline: %d events written to %s (open in Perfetto / chrome://tracing)\n",
				o.tl.Events(), o.timeline)
		}
	}
	if o.heatmap {
		fmt.Fprintln(stdout)
		return o.tl.WriteHeatmap(stdout, 0)
	}
	return nil
}

// commFlags bundles the -comm* flag values for runCommMode; inflight
// is -inflight-dump and out holds the sink outputs.
type commFlags struct {
	prog, scale     string
	bytes, requests int
	qps             float64
	seed            uint64
	export, replay  string
	inflight        bool
	out             outputs
}

// pickCommScale maps the -scale preset onto a communication scale
// (medium is the small preset with a 4x buffer and twice the
// requests).
func pickCommScale(sel string) (netcrafter.CommScale, error) {
	switch sel {
	case "tiny":
		return netcrafter.CommTiny(), nil
	case "small":
		return netcrafter.CommSmall(), nil
	case "medium":
		sc := netcrafter.CommSmall()
		sc.Bytes *= 4
		sc.Requests *= 2
		return sc, nil
	}
	return netcrafter.CommScale{}, fmt.Errorf("unknown -scale %q", sel)
}

// runCommMode is the -comm / -comm-replay path: generate or parse a
// communication plan, optionally export it, run it — on the ticked
// fabric with the sinks attached, or, for a flow-backend run that asks
// for no sink and no system flag, through the analytic flow solver —
// and print the makespan line plus, for serving programs, the
// per-request latency table.
func runCommMode(cfg netcrafter.Config, cf commFlags, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "netcrafter-sim:", err)
		return 1
	}
	out := &cf.out

	var plan *netcrafter.CommPlan
	if cf.replay != "" {
		f, err := os.Open(cf.replay)
		if err != nil {
			return fail(err)
		}
		plan, err = netcrafter.ParseCommTrace(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
	} else {
		sc, err := pickCommScale(cf.scale)
		if err != nil {
			return fail(err)
		}
		sc.GPUs = len(cfg.Topo.Devices)
		sc.Seed = cf.seed
		if cf.bytes > 0 {
			sc.Bytes = cf.bytes
		}
		if cf.qps > 0 {
			sc.QPS = cf.qps
		}
		if cf.requests > 0 {
			sc.Requests = cf.requests
		}
		plan, err = netcrafter.CommProgram(cf.prog, sc)
		if err != nil {
			return fail(err)
		}
	}

	if cf.export != "" {
		w, closeW, err := openOut(cf.export, stdout)
		if err != nil {
			return fail(err)
		}
		if err := netcrafter.WriteCommTrace(w, plan); err != nil {
			return fail(err)
		}
		if err := closeW(); err != nil {
			return fail(err)
		}
		if cf.export != "-" {
			fmt.Fprintf(stdout, "comm: %d sends exported to %s\n", len(plan.Sends), cf.export)
		}
	}

	// Open outputs before simulating, as the workload path does.
	if err := out.open(stdout); err != nil {
		return fail(err)
	}

	var res *netcrafter.CommResult
	var sys *netcrafter.System
	var err error
	if cfg.Backend.Norm() == netcrafter.BackendFlow && out.sinks() == (netcrafter.Sinks{}) && !cf.inflight && !cfg.Profile {
		res, err = netcrafter.RunCommPlanWith(cfg, plan, netcrafter.CommOptions{}, 500_000_000)
	} else {
		sys, err = runTicked(cfg, out, cf.inflight, plan.Name, stdout, stderr, func(sys *netcrafter.System) (err error) {
			res, err = netcrafter.RunCommPlan(sys, plan, netcrafter.CommOptions{}, 500_000_000)
			return err
		})
	}
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, res.String())
	if tbl := res.LatencyTable(); tbl != "" {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, tbl)
	}
	if sys != nil {
		if err := printProfile(stdout, sys); err != nil {
			return fail(err)
		}
	}

	if err := out.finish(stdout); err != nil {
		return fail(err)
	}
	return 0
}

// pickConfig returns the named configuration and the intra- and
// inter-cluster GB/s of its default fabric (Table 2: 128 and 16; the
// ideal system runs every link at 128).
func pickConfig(sel string) (cfg netcrafter.Config, intraGBps, interGBps int, err error) {
	intraGBps, interGBps = 128, 16
	switch sel {
	case "baseline":
		cfg = netcrafter.Baseline()
	case "ideal":
		cfg, interGBps = netcrafter.Ideal(), intraGBps
	case "netcrafter":
		cfg = netcrafter.WithNetCrafter()
	case "sector":
		cfg = netcrafter.Baseline()
		cfg.GPU.FetchMode = netcrafter.FetchSector
	default:
		err = fmt.Errorf("unknown -config %q", sel)
	}
	return cfg, intraGBps, interGBps, err
}

func pickScale(sel string) (netcrafter.Scale, error) {
	switch sel {
	case "tiny":
		return netcrafter.Tiny(), nil
	case "small":
		return netcrafter.Small(), nil
	case "medium":
		return netcrafter.Medium(), nil
	}
	return netcrafter.Scale{}, fmt.Errorf("unknown -scale %q", sel)
}

func printResult(w io.Writer, r *netcrafter.Result, verbose bool) {
	fmt.Fprintf(w, "%-8s cycles=%-10d instr=%-8d L1acc=%-9d L1MPKI=%-7.2f\n",
		r.Workload, r.Cycles, r.Instructions, r.L1Accesses, r.L1MPKI())
	fmt.Fprintf(w, "         inter-link util=%.2f  inter-lat=%.0fcy intra-lat=%.0fcy  remote r/w=%d/%d\n",
		r.InterUtilization, r.InterReadLatency, r.IntraReadLatency, r.RemoteReads, r.RemoteWrites)
	fmt.Fprintf(w, "         flits=%d wireB=%d stitched=%.1f%% trimmedFlits=%d pooled=%d ptwShare=%.1f%%\n",
		r.Net.FlitsTotal.Value(), r.Net.WireBytes.Value(), 100*r.Net.StitchRate(),
		r.Net.FlitsTrimmed.Value(), r.Net.PooledFlits.Value(), 100*r.Net.PTWShare())
	if verbose {
		fmt.Fprintf(w, "         by-type: %s\n", r.Net.FlitsByType)
		fmt.Fprintf(w, "         occupancy: %s\n", r.Net.Occupancy)
		fmt.Fprintf(w, "         bytes-needed: %s\n", r.BytesNeeded)
	}
}
