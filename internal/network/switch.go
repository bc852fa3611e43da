package network

import (
	"fmt"

	"netcrafter/internal/flit"
	"netcrafter/internal/sim"
)

// SwitchConfig carries the switch microarchitecture parameters
// (Table 2: 30-cycle processing latency, 1024-entry I/O buffers).
type SwitchConfig struct {
	ProcessingLatency sim.Cycle
	BufferEntries     int
}

// DefaultSwitchConfig returns the paper's baseline switch parameters.
func DefaultSwitchConfig() SwitchConfig {
	return SwitchConfig{ProcessingLatency: 30, BufferEntries: 1024}
}

// Switch is a crossbar router. Each attached port feeds an input
// pipeline with the configured processing latency; routed flits are
// placed in per-output buffers and ejected at 1 flit/cycle/port. Full
// output buffers pause routing for flits bound to them (back-pressure).
type Switch struct {
	Name  string
	cfg   SwitchConfig
	ports []*Port
	// pipes[i] holds flits from ports[i] that are traversing the
	// processing pipeline.
	pipes []*sim.Queue[*flit.Flit]
	// outBufs[i] holds routed flits waiting for egress on ports[i].
	outBufs []*sim.Queue[*flit.Flit]
	// rates[i] is the per-cycle flit service rate of ports[i]; it is
	// sized to the attached link's bandwidth so the higher-bandwidth
	// intra-cluster ports are not throttled to 1 flit/cycle.
	rates   []int
	maxRate int
	granted []int // per-tick scratch, reused across cycles
	// route[dev] is the output port for device dev, or -1 for "no
	// route" (the default port applies); it grows to the highest
	// routed DeviceID.
	route   []int32
	defPort int
	rrNext  int
	// waker is the engine handle when the switch is registered with a
	// wake-scheduled engine. Besides re-arming on port input, it
	// supplies the processed-round counter that the round-robin pointer
	// is derived from: historically rrNext advanced once per engine
	// tick round whether or not the switch had traffic, so a
	// wake-scheduled switch must derive it from rounds processed, not
	// ticks received, to arbitrate identically.
	waker *sim.Waker
}

// NewSwitch creates a switch with no ports attached. defPort is used
// for any destination without an explicit route (-1 = drop is illegal:
// unroutable flits panic, surfacing topology bugs immediately).
func NewSwitch(name string, cfg SwitchConfig) *Switch {
	return &Switch{
		Name:    name,
		cfg:     cfg,
		defPort: -1,
	}
}

// AddPort attaches a port with a 1 flit/cycle service rate and returns
// its index.
func (s *Switch) AddPort(p *Port) int {
	s.ports = append(s.ports, p)
	p.In.SetWaker(s.waker)
	s.pipes = append(s.pipes, sim.NewQueue[*flit.Flit](s.cfg.BufferEntries, s.cfg.ProcessingLatency))
	s.outBufs = append(s.outBufs, sim.NewQueue[*flit.Flit](s.cfg.BufferEntries, 1))
	s.rates = append(s.rates, 1)
	s.granted = append(s.granted, 0)
	if s.maxRate < 1 {
		s.maxRate = 1
	}
	return len(s.ports) - 1
}

// NewPort creates, attaches and returns a new port on the switch.
func (s *Switch) NewPort(name string) *Port {
	p := NewPort(fmt.Sprintf("%s.%s", s.Name, name), s.cfg.BufferEntries)
	s.AddPort(p)
	return p
}

// SetPortRate sets the per-cycle flit service rate of a port; topology
// code matches it to the attached link's bandwidth.
func (s *Switch) SetPortRate(port, flitsPerCycle int) {
	s.mustPort(port)
	if flitsPerCycle < 1 {
		panic("network: port rate must be >= 1")
	}
	s.rates[port] = flitsPerCycle
	if flitsPerCycle > s.maxRate {
		s.maxRate = flitsPerCycle
	}
}

// AddRoute directs flits for dev out of the given port index. A
// conflicting duplicate — the device already routed out a different
// port — is an error: earlier the second entry silently replaced the
// first, hiding topology bugs until flits looped or vanished. Topology
// construction propagates the error; re-adding the same mapping is a
// no-op.
func (s *Switch) AddRoute(dev flit.DeviceID, port int) error {
	s.mustPort(port)
	if dev < 0 {
		return fmt.Errorf("network: switch %s: negative device %d", s.Name, dev)
	}
	for int(dev) >= len(s.route) {
		s.route = append(s.route, -1)
	}
	if prev := s.route[dev]; prev >= 0 && int(prev) != port {
		return fmt.Errorf("network: switch %s: duplicate route for device %d (port %d, then %d)",
			s.Name, dev, prev, port)
	}
	s.route[dev] = int32(port)
	return nil
}

// SetRoute directs flits for dev out of the given port index, panicking
// on a conflicting duplicate (use AddRoute to handle it as an error).
func (s *Switch) SetRoute(dev flit.DeviceID, port int) {
	if err := s.AddRoute(dev, port); err != nil {
		panic(err)
	}
}

// SetDefaultRoute directs flits with no explicit route out of port.
func (s *Switch) SetDefaultRoute(port int) {
	s.mustPort(port)
	s.defPort = port
}

func (s *Switch) mustPort(port int) {
	if port < 0 || port >= len(s.ports) {
		panic(fmt.Sprintf("network: switch %s has no port %d", s.Name, port))
	}
}

func (s *Switch) portFor(dev flit.DeviceID) int {
	if uint(dev) < uint(len(s.route)) {
		if p := s.route[dev]; p >= 0 {
			return int(p)
		}
	}
	if s.defPort >= 0 {
		return s.defPort
	}
	panic(fmt.Sprintf("network: switch %s cannot route to device %d", s.Name, dev))
}

// Tick implements sim.Ticker: ingest, route, eject.
func (s *Switch) Tick(now sim.Cycle) bool {
	busy := false

	// Ingress: accept up to the port's rate into the processing
	// pipeline.
	for i, p := range s.ports {
		for k := 0; k < s.rates[i] && !s.pipes[i].Full(); k++ {
			f, ok := p.In.Pop(now)
			if !ok {
				break
			}
			s.pipes[i].Push(f, now)
			busy = true
		}
	}

	// Route: each output accepts at most its rate per cycle; inputs
	// are scanned round-robin for fairness. A flit whose output buffer
	// is full blocks its input pipeline (head-of-line blocking, as in
	// a real input-buffered switch).
	n := len(s.ports)
	if s.waker != nil && n > 0 {
		// Derived, not counted: rrNext must advance once per processed
		// engine round (as it did when the switch was ticked every
		// round), not once per received tick, or arbitration would
		// depend on how many idle ticks the engine skipped.
		s.rrNext = int(s.waker.Rounds() % int64(n))
	}
	granted := s.granted
	for i := range granted {
		granted[i] = 0
	}
	for pass := 0; pass < s.maxRate; pass++ {
		progress := false
		for k, i := 0, s.rrNext; k < n; k, i = k+1, i+1 {
			if i == n {
				i = 0
			}
			f, ok := s.pipes[i].Peek(now)
			if !ok {
				continue
			}
			out := s.portFor(f.Pkt.Dst)
			if granted[out] >= s.rates[out] || s.outBufs[out].Full() {
				continue
			}
			s.pipes[i].PopReady() // readiness established by Peek above
			s.outBufs[out].Push(f, now)
			granted[out]++
			progress = true
			busy = true
		}
		if !progress {
			break
		}
	}
	if s.waker == nil {
		// Legacy path for switches driven outside an engine (direct
		// Tick calls in tests): count ticks, as every tick is a round.
		s.rrNext = (s.rrNext + 1) % max(n, 1)
	}

	// Egress: move up to the port's rate to its Out queue, from which
	// the attached link drains at link bandwidth.
	for i, p := range s.ports {
		for k := 0; k < s.rates[i]; k++ {
			f, ok := s.outBufs[i].Peek(now)
			if !ok || p.Out.Full() {
				break
			}
			s.outBufs[i].PopReady() // readiness established by Peek above
			p.Out.Push(f, now)
			busy = true
		}
	}
	return busy
}

// SetWaker implements sim.WakerAware: port input pushes (link
// deliveries) re-arm the switch, and the waker's round counter drives
// the round-robin pointer (see the waker field).
func (s *Switch) SetWaker(w *sim.Waker) {
	s.waker = w
	for _, p := range s.ports {
		p.In.SetWaker(w)
	}
}

// NextWake implements sim.WakeHinter. Hot path: called after every
// switch tick, so the three queue heads are compared directly — no
// per-call slice.
func (s *Switch) NextWake(now sim.Cycle) sim.Cycle {
	wake := sim.CycleMax
	for i, p := range s.ports {
		if c := p.In.NextReady(); c < wake {
			wake = c
		}
		if c := s.pipes[i].NextReady(); c < wake {
			wake = c
		}
		if c := s.outBufs[i].NextReady(); c < wake {
			wake = c
		}
	}
	return wake
}

// Ports returns the attached ports (for topology wiring and tests).
func (s *Switch) Ports() []*Port { return s.ports }
