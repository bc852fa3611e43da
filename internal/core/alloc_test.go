package core

import (
	"testing"

	"netcrafter/internal/flit"
	"netcrafter/internal/sim"
	"netcrafter/internal/stats"
)

// driveOut ticks a detached controller (no engine, no Trace, no obs
// sinks) from cycle *now until it holds no flit, draining its wire side
// every cycle, and leaves *now at the next free cycle.
func driveOut(c *Controller, now *sim.Cycle) {
	for c.Local.In.Len() > 0 || c.QueuedFlits() > 0 || c.Remote.Out.Len() > 0 {
		*now++
		c.Tick(*now)
		for c.Remote.Out.CanPop(*now) {
			c.Remote.Out.PopReady()
		}
	}
	*now++
}

// injectAll pushes fs into the controller's local input at now.
func injectAll(c *Controller, fs []*flit.Flit, now sim.Cycle) {
	for _, f := range fs {
		if !c.Local.In.Push(f, now) {
			panic("injectAll: local in full")
		}
	}
}

// TestControllerDetachedPassNoAllocs pins the untrimmed flit path of a
// detached controller at zero allocations: intake into the cluster
// queue, the scheduler, statistics and ejection onto the wire, with
// and without the NetCrafter mechanisms (the flits are full data
// flits, so nothing stitches).
func TestControllerDetachedPassNoAllocs(t *testing.T) {
	for name, cfg := range map[string]Config{"passthrough": Passthrough(), "netcrafter": Baseline()} {
		c := NewController("ctl", 0, 3, cfg)
		var fs []*flit.Flit
		for dst := flit.ClusterID(1); dst <= 3; dst++ {
			for _, f := range flit.Segment(pkt(flit.WriteReq, dst), 16) {
				if f.EmptyBytes() == 0 {
					fs = append(fs, f)
				}
			}
		}
		now := sim.Cycle(0)
		allocs := testing.AllocsPerRun(100, func() {
			injectAll(c, fs, now)
			driveOut(c, &now)
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per intake->eject pass, want 0", name, allocs)
		}
		if c.Net.FlitsTotal.Value() != int64(101*len(fs)) {
			t.Errorf("%s: ejected %d flits, want %d", name, c.Net.FlitsTotal.Value(), 101*len(fs))
		}
	}
}

// TestControllerDetachedTrimAllocs pins the trim path of a detached
// controller: trimming one packet allocates exactly what re-segmenting
// it does. The trace event (and its formatted detail) must not be
// built when no recorder is attached.
func TestControllerDetachedTrimAllocs(t *testing.T) {
	cfg := Passthrough()
	cfg.EnableTrim = true
	c := NewController("ctl", 0, 1, cfg)
	const runs = 50
	var trains [runs + 1][]*flit.Flit
	for i := range trains {
		p := pkt(flit.ReadRsp, 1)
		p.TrimEligible = true
		trains[i] = flit.Segment(p, 16)
	}
	now, next := sim.Cycle(0), 0
	allocs := testing.AllocsPerRun(runs, func() {
		injectAll(c, trains[next], now)
		next++
		driveOut(c, &now)
	})
	trimmed := &flit.Packet{Type: flit.ReadRsp, TrimEligible: true}
	flit.TrimResponse(trimmed)
	segment := testing.AllocsPerRun(runs, func() { flit.Segment(trimmed, 16) })
	if allocs != segment {
		t.Errorf("trimming one packet: %.1f allocs, want %.1f (flit.Segment's)", allocs, segment)
	}
	if got := c.Net.PacketsTrimmed.Value(); got != runs+1 {
		t.Errorf("trimmed %d packets, want %d", got, runs+1)
	}
	if len(c.trims) != 0 {
		t.Errorf("%d trims left in flight", len(c.trims))
	}
}

// TestNetStatsBucketsFollowEnums pins the index contract the ejection
// path counts through: NetStats registers its type buckets in
// flit.Type order and its occupancy buckets in flit.OccupancyClass
// order.
func TestNetStatsBucketsFollowEnums(t *testing.T) {
	n := stats.NewNetStats()
	for _, h := range []*stats.Histogram{n.FlitsByType, n.BytesByType} {
		b := h.Buckets()
		if len(b) != flit.NumTypes {
			t.Fatalf("type buckets %v", b)
		}
		for i, name := range b {
			if flit.Type(i).String() != name {
				t.Fatalf("type bucket %d is %q, want %q", i, name, flit.Type(i))
			}
		}
	}
	for i, name := range n.Occupancy.Buckets() {
		if flit.OccupancyClass(i).String() != name {
			t.Fatalf("occupancy bucket %d is %q, want %q", i, name, flit.OccupancyClass(i))
		}
	}
}
