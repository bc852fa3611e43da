package sim

// Scheduler runs callbacks at future cycles. Components use it to model
// fixed latencies (cache lookups, TLB probes, DRAM access time) without
// each keeping its own timing wheel.
//
// Almost every event lands within a few hundred cycles of being
// scheduled, so callbacks live in a power-of-two ring of per-cycle
// buckets indexed by cycle — a slice index instead of the map lookup
// per At/Tick that used to show at the top of simulator profiles.
// Drained bucket slices are recycled through a free list, so the
// steady-state scheduler allocates nothing. Events beyond the ring
// window (rare: long compute segments) overflow to a map. A min-heap
// over the distinct pending cycles drives draining and wake hints —
// heap traffic scales with distinct deadlines rather than with events.
//
// A bucket entry is either a closure or a poll group (see Poller and
// Park): requests stalled on one owner's full resource, retried every
// PollInterval cycles as one entry instead of one closure each.
//
// Determinism: callbacks scheduled for the same cycle run in scheduling
// order; cycles fire in ascending order. Both hold across the
// ring/overflow split — an overflow bucket migrates as a unit and fires
// before same-cycle ring entries, which can only have been added later
// (the ring window only moves forward). A poll group holds a run of
// consecutive same-bucket polls, so it fires its members exactly where
// and when their individual callbacks would have run.
type Scheduler struct {
	// ring[at&ringMask] holds the entries for cycle at, valid for
	// cycles in [base, base+ringSize).
	ring [ringSize][]entry
	// base is the first cycle not yet drained; ring slots below it are
	// dead. Scheduling before base clamps to base (the old behavior for
	// past events: fire on the next Tick, still ahead of later cycles,
	// since base precedes every pending cycle).
	base Cycle
	// far holds buckets beyond the ring window, keyed by cycle.
	far     map[Cycle][]entry
	keys    []Cycle // min-heap of distinct pending cycles, ring and far
	free    [][]entry
	groups  []*pollGroup // recycled poll groups
	pending int
	waker   *Waker
}

const (
	ringSize = 4096
	ringMask = ringSize - 1
)

// PollInterval is the retry period of a parked poll: a request that
// stalls at cycle c is polled again at c+PollInterval, and every
// PollInterval cycles after that until its owner accepts it.
const PollInterval Cycle = 4

// Poller owns the requests parked in its poll groups: the component
// whose full resource (an MSHR file, say) made them stall.
//
// The contract that makes grouping exact: a failing Poll only bumps
// counters — it changes no state and schedules nothing — and whether
// Poll fails depends only on the owner's state, which Version
// identifies. A group whose members all failed at the owner's current
// Version would fail again, so the scheduler charges them with one
// Stalled call instead of polling each.
type Poller interface {
	// Poll retries one parked request and reports whether the owner
	// accepted it. An accepted request leaves the group; a rejected
	// one stays parked for another PollInterval.
	Poll(ref any, now Cycle) bool
	// Stalled accounts n rejected polls, exactly as n failing Polls
	// would have.
	Stalled(n int)
	// Version is a counter that must advance whenever state that
	// decides Poll's outcome changes. It never returns to an earlier
	// value, so a group stamped with its oldest member's version
	// matches the current one only if every member failed at it.
	Version() uint64
}

// entry is one bucket slot: a closure, or (fn nil) a poll group.
type entry struct {
	fn func(Cycle)
	g  *pollGroup
}

// pollGroup is a run of consecutive parked polls of one owner in one
// bucket, in parking order.
type pollGroup struct {
	owner   Poller
	members []any
	// ver is the owner Version at which the oldest member last failed;
	// later members failed at the same or a later version.
	ver uint64
}

// NewScheduler returns an empty scheduler; register it with the engine.
func NewScheduler() *Scheduler {
	return &Scheduler{far: make(map[Cycle][]entry)}
}

// SetWaker implements WakerAware: At self-signals the engine, so
// callbacks scheduled from other components' ticks re-arm a sleeping
// scheduler.
func (s *Scheduler) SetWaker(w *Waker) { s.waker = w }

// At schedules fn to run at the given absolute cycle (clamped to run no
// earlier than the next tick).
func (s *Scheduler) At(at Cycle, fn func(now Cycle)) {
	at, b := s.open(at)
	s.store(at, append(b, entry{fn: fn}))
	s.pending++
}

// Park parks ref, which owner p just rejected at cycle now, to be
// polled at now+PollInterval. It joins the poll group that is the
// last entry of that bucket when the group has the same owner, and
// starts a new group otherwise, so bucket order is exactly what one
// callback per request would have produced.
func (s *Scheduler) Park(p Poller, ref any, now Cycle) {
	at, b := s.open(now + PollInterval)
	g := tailGroup(b, p)
	if g == nil {
		g = s.newGroup(p)
		s.store(at, append(b, entry{g: g}))
	}
	g.members = append(g.members, ref)
	s.pending++
}

// tailGroup returns b's last entry when it is a poll group of owner p.
func tailGroup(b []entry, p Poller) *pollGroup {
	if n := len(b); n > 0 {
		if g := b[n-1].g; g != nil && g.owner == p {
			return g
		}
	}
	return nil
}

// open clamps at to the first undrained cycle, publishes it as pending
// if its bucket is empty, wakes the engine for it, and returns the
// clamped cycle with its current bucket. The caller must store a
// non-empty bucket back (or append only to entries already in it).
func (s *Scheduler) open(at Cycle) (Cycle, []entry) {
	if at < s.base {
		at = s.base
	}
	s.waker.Wake(at)
	if at < s.base+ringSize {
		i := at & ringMask
		if len(s.ring[i]) == 0 {
			if s.ring[i] == nil {
				s.ring[i] = s.grabBucket()
			}
			// First entry for this cycle: publish it to the heap,
			// unless an overflow bucket already did.
			if len(s.far) == 0 || s.far[at] == nil {
				s.pushKey(at)
			}
		}
		return at, s.ring[i]
	}
	b := s.far[at]
	if b == nil {
		s.pushKey(at)
	}
	return at, b
}

// store puts back the bucket of a cycle returned by open.
func (s *Scheduler) store(at Cycle, b []entry) {
	if at < s.base+ringSize {
		s.ring[at&ringMask] = b
	} else {
		s.far[at] = b
	}
}

// grabBucket returns a recycled zero-length bucket, or nil when the
// free list is empty (append then allocates as usual).
func (s *Scheduler) grabBucket() []entry {
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return b
	}
	return nil
}

// newGroup returns an empty group of owner p, recycled when possible.
func (s *Scheduler) newGroup(p Poller) *pollGroup {
	var g *pollGroup
	if n := len(s.groups); n > 0 {
		g = s.groups[n-1]
		s.groups[n-1] = nil
		s.groups = s.groups[:n-1]
	} else {
		g = &pollGroup{}
	}
	g.owner, g.ver = p, p.Version()
	return g
}

func (s *Scheduler) freeGroup(g *pollGroup) {
	clear(g.members)
	g.members = g.members[:0]
	g.owner = nil
	s.groups = append(s.groups, g)
}

// After schedules fn to run delay cycles after now (minimum 1).
func (s *Scheduler) After(now, delay Cycle, fn func(now Cycle)) {
	if delay < 1 {
		delay = 1
	}
	s.At(now+delay, fn)
}

// Tick implements Ticker, firing every callback due at or before now.
func (s *Scheduler) Tick(now Cycle) bool {
	busy := false
	for len(s.keys) > 0 && s.keys[0] <= now {
		at := s.popKey()
		// An overflow bucket for this cycle predates any ring entries
		// (the window only moves forward), so it fires first.
		// Callbacks may schedule more work for this same cycle while
		// we drain it; re-reading the bucket each iteration picks
		// those up in order.
		if len(s.far) > 0 && s.far[at] != nil {
			for i := 0; i < len(s.far[at]); i++ {
				s.run(s.far[at][i], now)
				busy = true
			}
			delete(s.far, at)
		}
		ri := at & ringMask
		for i := 0; i < len(s.ring[ri]); i++ {
			s.run(s.ring[ri][i], now)
			busy = true
		}
		if b := s.ring[ri]; b != nil {
			s.ring[ri] = nil
			clear(b)
			s.free = append(s.free, b[:0])
		}
	}
	if s.base <= now {
		s.base = now + 1
	}
	return busy
}

func (s *Scheduler) run(e entry, now Cycle) {
	if e.g != nil {
		s.poll(e.g, now)
		return
	}
	e.fn(now)
	s.pending--
}

// poll fires a poll group. When every member failed at the owner's
// current version nothing can have changed for any of them: charge the
// stalls in one call and re-park the group whole. Otherwise poll each
// member in order and re-park the ones that fail again, through Park's
// join rule, so followers a success scheduled into the re-park bucket
// keep their place between them.
func (s *Scheduler) poll(g *pollGroup, now Cycle) {
	p := g.owner
	if p.Version() == g.ver {
		p.Stalled(len(g.members))
		s.repark(g, now+PollInterval)
		return
	}
	s.pending -= len(g.members)
	for _, ref := range g.members {
		if !p.Poll(ref, now) {
			s.Park(p, ref, now)
		}
	}
	s.freeGroup(g)
}

// repark appends a whole group to the bucket of cycle at, merging it
// into that bucket's tail group (whose version is no later) when the
// owners match.
func (s *Scheduler) repark(g *pollGroup, at Cycle) {
	at, b := s.open(at)
	if t := tailGroup(b, g.owner); t != nil {
		t.members = append(t.members, g.members...)
		s.freeGroup(g)
		return
	}
	s.store(at, append(b, entry{g: g}))
}

// pushKey inserts a cycle into the pending-cycle min-heap. Hand-rolled
// like Engine.heapPush: container/heap would box every Cycle.
func (s *Scheduler) pushKey(at Cycle) {
	h := append(s.keys, at)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	s.keys = h
}

// popKey removes and returns the earliest pending cycle.
func (s *Scheduler) popKey() Cycle {
	h := s.keys
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h[l] < h[small] {
			small = l
		}
		if r < n && h[r] < h[small] {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	s.keys = h
	return top
}

// NextWake implements WakeHinter.
func (s *Scheduler) NextWake(now Cycle) Cycle {
	if len(s.keys) == 0 {
		return CycleMax
	}
	return s.keys[0]
}

// Pending returns the number of scheduled callbacks plus parked polls.
func (s *Scheduler) Pending() int { return s.pending }
