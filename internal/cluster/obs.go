package cluster

import (
	"errors"
	"fmt"

	"netcrafter/internal/flit"
	"netcrafter/internal/obs"
	"netcrafter/internal/obs/timeline"
	"netcrafter/internal/sim"
	"netcrafter/internal/trace"
)

// obsWireWindow is the window of the per-controller ejected-bytes time
// series and the timeline's utilization/occupancy tracks: coarse enough
// to keep a long run's series small, fine enough to show phase
// behaviour.
const obsWireWindow sim.Cycle = 1024

// Sinks are the observation channels a System can feed. Every field
// may be nil: a nil sink records nothing and costs nothing, so callers
// enable each independently.
type Sinks struct {
	// Trace receives wire-level controller events (ejections,
	// stitches, trims, pooling) as JSON lines.
	Trace *trace.Recorder
	// Metrics receives, per GPU, the latency histograms and pull
	// gauges of gpu.GPU.Attach; per controller, a residency histogram
	// (ncN.ctl_latency_cycles), a wire-bytes time series
	// (ncN.wire_bytes) and pull gauges over the controller's NetStats
	// counters; and per inter-cluster link direction, overall and
	// active-window utilization pull gauges. The comm runner adds its
	// request-latency histogram here.
	Metrics *obs.Registry
	// Spans receives one lifecycle span per packet.
	Spans *obs.SpanRecorder
	// Timeline receives per-component execute slices from the engine's
	// tick probe, a windowed utilization track per link direction, an
	// occupancy track per controller cluster queue and per inter-link
	// endpoint buffer, and per-state dwell tracks from every cluster's
	// transaction table. Call Timeline.Finish after the run, then
	// export with WriteTrace / WriteHeatmap / WriteProfile.
	Timeline *timeline.Timeline
}

// errShardedSinks refuses sinks on a sharded system: every sink is
// shared state written by components on every shard.
var errShardedSinks = errors.New("cluster: observability sinks (metrics, spans, timeline, trace) are shared across components and need the serial engine: run with Shards <= 1")

// Attach wires the system into k's sinks, replacing whatever an
// earlier Attach wired; Attach(Sinks{}) detaches everything. Call
// before running; attaching mid-run only affects what happens
// afterwards. A sharded system (Config.Shards > 1) refuses any non-nil
// sink before a cycle is simulated, and accepts Sinks{}.
func (s *System) Attach(k Sinks) error {
	if s.coord != nil && k != (Sinks{}) {
		return errShardedSinks
	}
	s.sinks = k
	s.attachTimeline(k.Timeline)
	reg := k.Metrics
	for _, g := range s.GPUs {
		g.Attach(reg, k.Spans)
	}
	for _, ctl := range s.Controllers {
		ctl := ctl
		ctl.Trace = k.Trace
		p := ctl.Name + "."
		ctl.ObsCtlLat = reg.Hist(p + "ctl_latency_cycles")
		ctl.ObsWire = reg.Series(p+"wire_bytes", obsWireWindow)
		reg.GaugeFunc(p+"flits_total", func() float64 { return float64(ctl.Net.FlitsTotal.Value()) })
		reg.GaugeFunc(p+"flits_stitched", func() float64 { return float64(ctl.Net.FlitsStitched.Value()) })
		reg.GaugeFunc(p+"items_stitched", func() float64 { return float64(ctl.Net.ItemsStitched.Value()) })
		reg.GaugeFunc(p+"flits_trimmed", func() float64 { return float64(ctl.Net.FlitsTrimmed.Value()) })
		reg.GaugeFunc(p+"packets_trimmed", func() float64 { return float64(ctl.Net.PacketsTrimmed.Value()) })
		reg.GaugeFunc(p+"pooled_flits", func() float64 { return float64(ctl.Net.PooledFlits.Value()) })
		reg.GaugeFunc(p+"ptw_flits", func() float64 { return float64(ctl.Net.PTWFlits.Value()) })
		reg.GaugeFunc(p+"data_flits", func() float64 { return float64(ctl.Net.DataFlits.Value()) })
		reg.GaugeFunc(p+"wire_bytes_total", func() float64 { return float64(ctl.Net.WireBytes.Value()) })
		reg.GaugeFunc(p+"queued_flits", func() float64 { return float64(ctl.QueuedFlits()) })
	}
	for i, l := range s.InterLinks {
		l := l
		p := fmt.Sprintf("inter%d.", i)
		reg.GaugeFunc(p+"util_a2b", func() float64 { return l.AtoB.Utilization(s.Engine.Now()) })
		reg.GaugeFunc(p+"util_b2a", func() float64 { return l.BtoA.Utilization(s.Engine.Now()) })
		reg.GaugeFunc(p+"active_util_a2b", func() float64 { return l.AtoB.ActiveUtilization() })
		reg.GaugeFunc(p+"active_util_b2a", func() float64 { return l.BtoA.ActiveUtilization() })
	}
	// Within-cluster taper segments (fat-tree up/down links and the
	// like) get the same per-direction utilization gauges under their
	// own taper<i> names; empty on boundary-only fabrics, so the seed
	// presets' metric namespaces are unchanged.
	for i, l := range s.TaperLinks {
		l := l
		p := fmt.Sprintf("taper%d.", i)
		reg.GaugeFunc(p+"util_a2b", func() float64 { return l.AtoB.Utilization(s.Engine.Now()) })
		reg.GaugeFunc(p+"util_b2a", func() float64 { return l.BtoA.Utilization(s.Engine.Now()) })
		reg.GaugeFunc(p+"active_util_a2b", func() float64 { return l.AtoB.ActiveUtilization() })
		reg.GaugeFunc(p+"active_util_b2a", func() float64 { return l.BtoA.ActiveUtilization() })
	}
	return nil
}

// attachTimeline wires the event timeline (see Sinks.Timeline). A nil
// timeline detaches everything it would have attached.
func (s *System) attachTimeline(tl *timeline.Timeline) {
	tl.AttachEngine(s.Engine)
	for _, l := range s.Links {
		l.AtoB.Track = tl.NewUtilTrack(l.AtoB.Name, obsWireWindow, float64(l.ABRate))
		l.BtoA.Track = tl.NewUtilTrack(l.BtoA.Name, obsWireWindow, float64(l.BARate))
	}
	for _, ctl := range s.Controllers {
		ctl.ObsOccupancy = tl.NewOccupancyTrack(ctl.Name+".queue", obsWireWindow)
	}
	probe := func(q *sim.Queue[*flit.Flit], name string) {
		if tl == nil {
			q.SetDepthProbe(nil)
			return
		}
		tr := tl.NewOccupancyTrack(name, obsWireWindow)
		q.SetDepthProbe(func(at sim.Cycle, depth int) {
			tr.Observe(at, float64(depth))
		})
	}
	for i, l := range s.InterLinks {
		probe(l.A.In, fmt.Sprintf("inter%d.a.in", i))
		probe(l.B.In, fmt.Sprintf("inter%d.b.in", i))
	}
	for i, l := range s.TaperLinks {
		probe(l.A.In, fmt.Sprintf("taper%d.a.in", i))
		probe(l.B.In, fmt.Sprintf("taper%d.b.in", i))
	}
	for _, tb := range s.Tables {
		tb.SetTimeline(tl)
	}
}
