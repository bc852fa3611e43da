package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"netcrafter/internal/cluster"
	"netcrafter/internal/comm"
	"netcrafter/internal/flow"
	"netcrafter/internal/topo"
	"netcrafter/internal/workload"
)

// cellResult is what one timed cell produced.
type cellResult struct {
	Spec cellSpec
	// Err is the cell's failure: a run error or a failed check.
	Err error
	FP  fingerprint
	// Host measurements. Setup is seed to a system or network ready to
	// run, Sim the run call, Wall setup + run + checks.
	Setup, Sim, Wall time.Duration
	// Cycles is the simulated cycles the cell advanced (the makespan
	// for flow cells).
	Cycles     int64
	AllocBytes uint64 // heap bytes allocated by the cell
	PeakRSS    uint64 // peak resident bytes while the cell ran
	// Counts are the per-layer counts read from the public results
	// (metric name -> value).
	Counts map[string]float64
}

// runCell builds and runs one cell, timing setup, run and checks, and
// checks the outcome against want (when non-nil). A non-nil tracer
// records a span around every call into a layer and turns on the
// engine self-profiler.
func runCell(c cellSpec, tr *tracer, want *fingerprint) cellResult {
	resetHost()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	r := cellResult{Spec: c, Counts: map[string]float64{}}
	tr.beginCell()
	tr.begin("cell")
	t0 := time.Now()
	r.Err = simulate(c, tr, &r, want)
	r.Wall = time.Since(t0)
	tr.end()

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	r.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.PeakRSS = peakRSS()
	r.Counts["host.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	return r
}

// call runs f inside a span named name (layer.function).
func call(tr *tracer, name string, f func() error) error {
	tr.begin(name)
	defer tr.end()
	return f()
}

// simulate is runCell's body: setup, run, checks. It fills r's timings,
// cycles, counts and fingerprint.
func simulate(c cellSpec, tr *tracer, r *cellResult, want *fingerprint) error {
	t0 := time.Now()
	tr.begin("setup")
	var g *topo.Graph
	err := call(tr, "topo.preset", func() (err error) { g, err = topo.Preset(c.Preset); return })
	if err != nil {
		tr.end()
		return err
	}
	if tr != nil {
		// Build and NewNetwork route internally; the traced pass times
		// the routing core on its own with one extra call.
		if err := call(tr, "topo.routes", func() error { _, err := g.Routes(); return err }); err != nil {
			tr.end()
			return err
		}
	}
	r.Counts["topo.devices"] = float64(len(g.Devices))
	r.Counts["topo.links"] = float64(len(g.Links))

	var (
		spec *workload.Spec
		plan *comm.Plan
		sys  *cluster.System
		net  *flow.Network
	)
	switch c.Kind {
	case kindWorkload:
		err = call(tr, "workload.gen", func() (err error) { spec, err = workload.ByName(c.Program, c.WScale); return })
		if err == nil {
			r.Counts["workload.wavefronts"] = float64(spec.TotalWavefronts())
		}
	default:
		sc := c.CScale
		sc.GPUs = len(g.Devices)
		err = call(tr, "comm.gen", func() (err error) { plan, err = comm.ByName(c.Program, sc); return })
		if err == nil {
			r.Counts["comm.sends"] = float64(len(plan.Sends))
			r.Counts["comm.bytes"] = float64(plan.TotalBytes())
		}
	}
	if err != nil {
		tr.end()
		return err
	}
	if c.Kind == kindFlow {
		opt := flow.Options{FlitBytes: cluster.WithNetCrafter().NetCrafter.FlitBytes}
		err = call(tr, "flow.network", func() (err error) { net, err = flow.NewNetwork(g, opt); return })
	} else {
		cfg := cluster.WithNetCrafter().WithTopology(g)
		cfg.Seed = c.Seed
		cfg.Shards = c.Shards
		cfg.Profile = tr != nil
		err = call(tr, "cluster.build", func() (err error) { sys, err = cluster.Build(cfg); return })
	}
	tr.end()
	r.Setup = time.Since(t0)
	if err != nil {
		return err
	}

	t1 := time.Now()
	var (
		wres *cluster.Result
		cres *comm.Result
	)
	switch c.Kind {
	case kindWorkload:
		err = call(tr, "cluster.run", func() (err error) { wres, err = sys.RunWorkload(spec, cycleLimit); return })
	case kindServe:
		err = call(tr, "cluster.run", func() (err error) { cres, err = sys.RunComm(plan, comm.Options{}, cycleLimit); return })
	case kindFlow:
		err = call(tr, "flow.solve", func() (err error) { cres, err = net.Run(plan, cycleLimit); return })
	}
	r.Sim = time.Since(t1)
	if err != nil {
		return err
	}

	tr.begin("check")
	defer tr.end()
	var problems []string
	if sys != nil {
		if err := call(tr, "cluster.audit", sys.Audit); err != nil {
			problems = append(problems, err.Error())
		}
		for _, b := range sys.BoundaryFlows() {
			if b.FlitsOut != b.FlitsIn || b.BytesOut != b.BytesIn {
				problems = append(problems, fmt.Sprintf("shard boundary %s lost traffic: %d/%d flits, %d/%d bytes delivered",
					b.Name, b.FlitsIn, b.FlitsOut, b.BytesIn, b.BytesOut))
			}
		}
		r.Cycles = int64(sys.Engine.Now())
		systemCounts(sys, r)
	}
	if wres != nil {
		r.Counts["network.inter_util"] = wres.InterUtilization
		r.Counts["network.inter_read_lat_cy"] = wres.InterReadLatency
		r.Counts["network.intra_read_lat_cy"] = wres.IntraReadLatency
	}
	if cres != nil {
		if cres.Incomplete > 0 {
			problems = append(problems, fmt.Sprintf("%d of %d requests incomplete", cres.Incomplete, cres.Requests))
		}
		if cres.BytesMoved != plan.TotalBytes() {
			problems = append(problems, fmt.Sprintf("moved %d bytes, plan has %d", cres.BytesMoved, plan.TotalBytes()))
		}
		if c.Kind == kindFlow {
			r.Cycles = int64(cres.Cycles)
		}
		r.Counts["comm.p50_cy"] = float64(cres.P50())
		r.Counts["comm.p99_cy"] = float64(cres.P99())
		r.Counts["comm.line_writes"] = float64(cres.LineWrites)
		r.FP.P50, r.FP.P99, r.FP.Makespan = int64(cres.P50()), int64(cres.P99()), int64(cres.Cycles)
	}
	r.FP.Cycles = r.Cycles
	r.fillFingerprint()
	if want != nil {
		if err := checkFingerprint(r.FP, *want); err != nil {
			problems = append(problems, err.Error())
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("%s", strings.Join(problems, "; "))
	}
	return nil
}

// systemCounts reads the per-layer counts of a cycle-level system from
// its public components.
func systemCounts(sys *cluster.System, r *cellResult) {
	m := r.Counts
	var instr, l1a, l1m, reads, writes int64
	for _, g := range sys.GPUs {
		instr += g.Instructions()
		l1a += g.L1Accesses()
		l1m += g.L1Misses()
		reads += g.RDMA.Stats.RemoteReads.Value()
		writes += g.RDMA.Stats.RemoteWrites.Value()
	}
	m["gpu.instructions"] = float64(instr)
	m["gpu.remote_reads"] = float64(reads)
	m["gpu.remote_writes"] = float64(writes)
	m["cache.l1_accesses"] = float64(l1a)
	m["cache.l1_misses"] = float64(l1m)

	var flits, stitched, trimmed, pooled, ptw, wire int64
	for _, ctl := range sys.Controllers {
		flits += ctl.Net.FlitsTotal.Value()
		stitched += ctl.Net.FlitsStitched.Value()
		trimmed += ctl.Net.FlitsTrimmed.Value()
		pooled += ctl.Net.PooledFlits.Value()
		ptw += ctl.Net.PTWFlits.Value()
		wire += ctl.Net.WireBytes.Value()
	}
	m["core.flits"] = float64(flits)
	m["core.flits_stitched"] = float64(stitched)
	m["core.flits_trimmed"] = float64(trimmed)
	m["core.flits_pooled"] = float64(pooled)
	m["core.ptw_flits"] = float64(ptw)
	m["core.wire_bytes"] = float64(wire)

	var components int
	for _, e := range sys.Engines {
		components += e.Components()
	}
	m["sim.components"] = float64(components)
	m["sim.rounds"] = float64(sys.Engine.Rounds())
	m["shard.count"] = float64(sys.Shards())
	var boundary int64
	for _, b := range sys.BoundaryFlows() {
		boundary += b.FlitsIn
	}
	m["shard.boundary_flits"] = float64(boundary)
	for k, v := range profileRows(sys) {
		m[k] = v
	}
}

// fillFingerprint copies the fingerprinted counts out of Counts.
func (r *cellResult) fillFingerprint() {
	n := func(k string) int64 { return int64(r.Counts[k]) }
	r.FP.Flits, r.FP.Stitched, r.FP.Trimmed = n("core.flits"), n("core.flits_stitched"), n("core.flits_trimmed")
	r.FP.Pooled, r.FP.PTWFlits, r.FP.WireB = n("core.flits_pooled"), n("core.ptw_flits"), n("core.wire_bytes")
	r.FP.RemoteReads, r.FP.RemoteWrites = n("gpu.remote_reads"), n("gpu.remote_writes")
}

// profileRows groups the engine self-profile (present when the system
// was built with Config.Profile) by registration-name prefix into the
// prof.* host-time rows. Components matching no prefix stay
// unattributed.
func profileRows(sys *cluster.System) map[string]float64 {
	m := map[string]float64{}
	for _, e := range sys.Engines {
		for _, c := range e.Profile() {
			if k := profileGroup(c.Name); k != "" {
				m[k] += c.Host.Seconds()
			}
		}
	}
	return m
}

// profileGroup maps an engine registration name to its prof.* row.
func profileGroup(name string) string {
	switch {
	case name == "sched":
		return "prof.sched_s"
	case strings.HasPrefix(name, "sw"):
		return "prof.switch_s"
	case strings.HasPrefix(name, "l."):
		return "prof.link_s"
	case strings.HasPrefix(name, "nc"):
		return "prof.core_s"
	case strings.HasPrefix(name, "comm"):
		return "prof.comm_s"
	case strings.HasPrefix(name, "gpu"):
		if i := strings.LastIndex(name, ".t"); i > 0 {
			if name[i+2:] == "0" {
				return "prof.gpu_rdma_s"
			}
			return "prof.gpu_mem_s"
		}
	}
	return ""
}

// resetHost makes every cell start from the same host state: garbage
// from earlier cells collected and the kernel's peak-RSS mark reset to
// the current footprint. Freed heap stays mapped, as it would in a
// long-running process, so a cell's peak is at least the heap an earlier
// cell left mapped. Returning it (debug.FreeOSMemory) would make every
// cell fault its heap in again, which added about 10% to gups-8x4's
// wall_s and doubled its setup_s.
func resetHost() {
	runtime.GC()
	// Writing 5 to clear_refs resets VmHWM (Linux); without it the peak
	// is the process's, which still bounds the cell's.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns the kernel's peak resident set size (VmHWM) in bytes,
// or 0 where /proc is unavailable.
func peakRSS() uint64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}
