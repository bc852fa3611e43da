package flow

import (
	"fmt"

	"netcrafter/internal/comm"
	"netcrafter/internal/flit"
	"netcrafter/internal/sim"
	"netcrafter/internal/topo"
)

// Options tunes the analytic model. The zero value selects the same
// defaults the cycle engine uses, so a flow run is directly comparable
// to a cycle run of the same plan.
type Options struct {
	// FlitBytes is the wire flit slot size; packet headers and payloads
	// are rounded up to whole flits exactly as segmentation would
	// (default flit.DefaultFlitBytes).
	FlitBytes int
	// LinesPerCycle caps each source's injection rate in line writes
	// per cycle, matching comm.Options.LinesPerCycle (default 2).
	LinesPerCycle int
	// HopCycles is the per-switch processing latency added on top of
	// each traversed link's propagation latency (default 1).
	HopCycles sim.Cycle
	// Start is the cycle corresponding to plan time 0.
	Start sim.Cycle
}

// WithDefaults fills unset knobs.
func (o Options) WithDefaults() Options {
	if o.FlitBytes <= 0 {
		o.FlitBytes = flit.DefaultFlitBytes
	}
	if o.LinesPerCycle <= 0 {
		o.LinesPerCycle = 2
	}
	if o.HopCycles <= 0 {
		o.HopCycles = 1
	}
	return o
}

// path is one device pair's precomputed route: the directed wire
// segments the payload crosses (fwd), the segments the per-line
// acknowledgments cross back (rev), and the round-trip propagation
// latency — the offset between a flow's last byte entering the wire
// and its last acknowledgment returning.
type path struct {
	fwd []int32
	rev []int32
	lat float64
}

// Network is the analytic form of a validated topology graph: one
// capacity-annotated segment per link direction plus one injection
// segment per device, and a routed path for every ordered device pair
// (the same BFS next-hop tables the cycle engine installs in its
// switches). A Network is immutable after NewNetwork and safe for
// concurrent use; each Run allocates private solver state.
type Network struct {
	opt  Options
	nDev int
	// cap is the per-segment capacity: wire segments in wire bytes per
	// cycle (rate x flit size), injection segments (the last nDev
	// entries, from injBase) in payload bytes per cycle.
	cap     []float64
	injBase int
	// paths holds the route for src*nDev+dst; src==dst entries are
	// zero (self-sends never touch the network). Every fwd slice is a
	// window of one shared arena, and rev is fwd of the opposite pair.
	paths []path
}

// NewNetwork compiles a topology graph into its analytic form. The
// graph is validated first (via Routes), so the same structural
// guarantees the cycle engine builds on hold here: every device has
// exactly one same-cluster switch attachment and every switch routes
// to every device. Paths are compiled from the routing table over node
// IDs: a per-switch hop-segment table resolves each next hop to its
// wire segment once, and every ordered pair is then walked once.
func NewNetwork(g *topo.Graph, opt Options) (*Network, error) {
	opt = opt.WithDefaults()
	r, err := g.Routes()
	if err != nil {
		return nil, err
	}
	nDev, nSw := r.NumDevices(), r.NumSwitches()
	n := &Network{opt: opt, nDev: nDev}
	fb := float64(opt.FlitBytes)

	// Segment 2i is link i's A->B direction, 2i+1 its B->A direction;
	// segHead is the node a segment delivers to, so segment sg leaves
	// segHead[sg^1].
	nSeg := 2 * len(g.Links)
	segHead := make([]int32, nSeg)
	segLat := make([]float64, nSeg)
	n.cap = make([]float64, 0, nSeg+nDev)
	for i, l := range g.Links {
		a, okA := r.NodeID(l.A)
		b, okB := r.NodeID(l.B)
		if !okA || !okB {
			return nil, fmt.Errorf("flow: link %s-%s references an unknown node", l.A, l.B)
		}
		segHead[2*i], segHead[2*i+1] = b, a
		segLat[2*i], segLat[2*i+1] = float64(l.Latency), float64(l.Latency)
		n.cap = append(n.cap, float64(l.RateAB())*fb, float64(l.RateBA())*fb)
	}
	n.injBase = len(n.cap)
	for i := 0; i < nDev; i++ {
		n.cap = append(n.cap, float64(opt.LinesPerCycle)*comm.LineBytes)
	}

	// attachSeg[d] leaves device d toward its switch; hopSeg[s*nDev+d]
	// leaves switch s toward its next hop to device d (-1: unresolved).
	attachSeg := make([]int32, nDev)
	for i := range attachSeg {
		attachSeg[i] = -1
	}
	hopSeg := make([]int32, nSw*nDev)
	for i := range hopSeg {
		hopSeg[i] = -1
	}
	for sg := int32(0); sg < int32(nSeg); sg++ {
		tail, head := segHead[sg^1], segHead[sg]
		if r.IsDevice(tail) {
			attachSeg[tail] = sg
			continue
		}
		s := r.SwitchOrdinal(tail)
		row := hopSeg[s*nDev : (s+1)*nDev]
		for d := range row {
			if r.NextHop(s, d) == head {
				row[d] = sg
			}
		}
	}

	// walk appends the segments from device src to device dst to the
	// arena and returns the one-way propagation latency: each segment's
	// link latency plus HopCycles per switch traversed.
	hopLat := float64(opt.HopCycles)
	arena := make([]int32, 0, 4*nDev*nDev)
	walk := func(src, dst int) (float64, error) {
		srcNode, dstNode := r.DeviceNode(src), r.DeviceNode(dst)
		sg := attachSeg[src]
		if sg < 0 {
			return 0, fmt.Errorf("flow: device %s has no link", r.NodeName(srcNode))
		}
		lat := 0.0
		for steps := 0; ; steps++ {
			if steps > nSw+1 {
				return 0, fmt.Errorf("flow: routing loop between %s and %s", r.NodeName(srcNode), r.NodeName(dstNode))
			}
			arena = append(arena, sg)
			lat += segLat[sg]
			cur := segHead[sg]
			if cur == dstNode {
				return lat, nil
			}
			lat += hopLat
			s := r.SwitchOrdinal(cur)
			if s < 0 || r.NextHop(s, dst) < 0 {
				return 0, fmt.Errorf("flow: switch %s has no route to %s", r.NodeName(cur), r.NodeName(dstNode))
			}
			if sg = hopSeg[s*nDev+dst]; sg < 0 {
				return 0, fmt.Errorf("flow: no link %s-%s on the %s->%s route",
					r.NodeName(cur), r.NextHopName(s, dst), r.NodeName(srcNode), r.NodeName(dstNode))
			}
		}
	}

	// Walk every ordered pair once, parking each one-way latency in
	// paths[].lat; then pair each direction with its opposite, whose
	// forward path is exactly this pair's acknowledgment path.
	n.paths = make([]path, nDev*nDev)
	off := make([]int32, nDev*nDev+1)
	for src := 0; src < nDev; src++ {
		for dst := 0; dst < nDev; dst++ {
			i := src*nDev + dst
			if src != dst {
				lat, err := walk(src, dst)
				if err != nil {
					return nil, err
				}
				n.paths[i].lat = lat
			}
			off[i+1] = int32(len(arena))
		}
	}
	for src := 0; src < nDev; src++ {
		for dst := src + 1; dst < nDev; dst++ {
			i, j := src*nDev+dst, dst*nDev+src
			fwd := arena[off[i]:off[i+1]:off[i+1]]
			rev := arena[off[j]:off[j+1]:off[j+1]]
			lat := n.paths[i].lat + n.paths[j].lat
			n.paths[i] = path{fwd: fwd, rev: rev, lat: lat}
			n.paths[j] = path{fwd: rev, rev: fwd, lat: lat}
		}
	}
	return n, nil
}

// Devices returns the number of endpoints the network routes between.
func (n *Network) Devices() int { return n.nDev }

// wireCost converts a send's payload size into its on-wire footprint:
// how many line writes it becomes, the forward wire bytes those lines
// occupy (request header plus payload, rounded up to whole flits per
// line packet), and the reverse wire bytes their acknowledgments
// occupy (one response-header flit per line). Dividing by the payload
// gives the per-payload-byte weights the max-min solver shares link
// capacity by — so a 64-byte line costs 80 forward wire bytes and 16
// reverse wire bytes at the default 16-byte flit, exactly what the
// cycle engine's segmentation puts on the wire.
func wireCost(payload, flitBytes int) (lines int64, fwdWire, revWire float64) {
	const reqHdr = flit.MetaHeaderBytes + flit.AddrBytes
	flits := func(bytes int) float64 {
		return float64((bytes + flitBytes - 1) / flitBytes * flitBytes)
	}
	full := payload / comm.LineBytes
	rem := payload % comm.LineBytes
	lines = int64(full)
	fwdWire = float64(full) * flits(reqHdr+comm.LineBytes)
	if rem > 0 {
		lines++
		fwdWire += flits(reqHdr + rem)
	}
	revWire = float64(lines) * flits(flit.MetaHeaderBytes)
	return lines, fwdWire, revWire
}
