package sim

import "testing"

func BenchmarkQueuePushPop(b *testing.B) {
	q := NewQueue[int](0, 1)
	now := Cycle(0)
	for i := 0; i < b.N; i++ {
		q.Push(i, now)
		now++
		q.Pop(now)
	}
}

func BenchmarkQueueDeepBacklog(b *testing.B) {
	q := NewQueue[int](0, 1)
	for i := 0; i < 4096; i++ {
		q.Push(i, 0)
	}
	now := Cycle(10)
	for i := 0; i < b.N; i++ {
		v, _ := q.Pop(now)
		q.Push(v, now)
		now++
	}
}

func BenchmarkSchedulerClusteredEvents(b *testing.B) {
	s := NewScheduler()
	e := NewEngine()
	e.Register("s", s)
	nop := func(Cycle) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Typical shape: many events landing on few distinct cycles.
		clusteredStep(s, e, nop)
	}
}

// clusteredStep is one cycle of BenchmarkSchedulerClusteredEvents'
// shape: sixteen events landing on four distinct future cycles.
func clusteredStep(s *Scheduler, e *Engine, fn func(Cycle)) {
	now := e.Now()
	for j := 0; j < 16; j++ {
		s.After(now, Cycle(1+j%4*25), fn)
	}
	e.Step()
}

// TestSchedulerSteadyStateNoAllocs pins the scheduler's steady state at
// zero allocations: once bucket slices and the pending-cycle heap have
// grown to the working set, scheduling and draining reuse them.
func TestSchedulerSteadyStateNoAllocs(t *testing.T) {
	s := NewScheduler()
	e := NewEngine()
	e.Register("s", s)
	nop := func(Cycle) {}
	for i := 0; i < 256; i++ {
		clusteredStep(s, e, nop)
	}
	if a := testing.AllocsPerRun(1000, func() { clusteredStep(s, e, nop) }); a != 0 {
		t.Fatalf("steady-state scheduling allocates %.2f per cycle, want 0", a)
	}
}

// fullOwner rejects every poll and never changes: the steady state of
// requests stalled on a full MSHR file.
type fullOwner struct{ stalls int }

func (o *fullOwner) Poll(any, Cycle) bool { o.stalls++; return false }
func (o *fullOwner) Stalled(n int)        { o.stalls += n }
func (o *fullOwner) Version() uint64      { return 0 }

// newPollStorm parks 64 requests on one fullOwner.
func newPollStorm() (*Engine, *fullOwner) {
	s := NewScheduler()
	e := NewEngine()
	e.Register("s", s)
	o := &fullOwner{}
	refs := make([]int, 64)
	for i := range refs {
		s.Park(o, &refs[i], 0)
	}
	return e, o
}

// BenchmarkSchedulerPollStorm measures one poll interval of 64 stalled
// requests whose owner has not changed: a single group entry, charged
// with one Stalled call. Reported per poll interval.
func BenchmarkSchedulerPollStorm(b *testing.B) {
	e, o := newPollStorm()
	e.Run(PollInterval) // up to the first poll, at cycle PollInterval
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(PollInterval)
	}
	b.StopTimer()
	if want := 64 * b.N; o.stalls != want {
		b.Fatalf("%d stalls, want %d", o.stalls, want)
	}
}

// TestSchedulerPollStormNoAllocs pins BenchmarkSchedulerPollStorm's
// steady state at zero allocations.
func TestSchedulerPollStormNoAllocs(t *testing.T) {
	e, o := newPollStorm()
	e.Run(16 * PollInterval) // polls at cycles 4, 8, …, 60
	if a := testing.AllocsPerRun(1000, func() { e.Run(PollInterval) }); a != 0 {
		t.Fatalf("a parked poll interval allocates %.2f, want 0", a)
	}
	if want := 64 * (15 + 1001); o.stalls != want {
		t.Fatalf("%d stalls, want %d", o.stalls, want)
	}
}

func BenchmarkEngineIdleSkip(b *testing.B) {
	e := NewEngine()
	s := NewScheduler()
	e.Register("s", s)
	for i := 0; i < b.N; i++ {
		s.At(e.Now()+1000, func(Cycle) {})
		e.Run(1000)
	}
}

func BenchmarkQueuePopReady(b *testing.B) {
	q := NewQueue[int](0, 1)
	now := Cycle(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(i, now)
		now++
		if _, ok := q.Peek(now); ok {
			q.PopReady()
		}
	}
}

// benchTicker wakes every `period` cycles and is busy for one tick.
type benchTicker struct {
	period Cycle
	next   Cycle
	ticks  int
}

func (t *benchTicker) Tick(now Cycle) bool {
	if now < t.next {
		return false
	}
	t.next = now + t.period
	t.ticks++
	return true
}

func (t *benchTicker) NextWake(now Cycle) Cycle { return t.next }

// BenchmarkEngineSparseWakes is the wake engine's home turf: 64 hinted
// components each busy once every 512 cycles. The tick-everything
// engine paid 64 no-op Tick calls per cycle here; the wake engine
// touches only due components. Reported per simulated cycle.
func BenchmarkEngineSparseWakes(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.Register("t", &benchTicker{period: 512, next: Cycle(i * 8)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(Cycle(b.N))
}

// hotTicker is hint-less: the engine must call it every processed cycle.
type hotTicker struct{ ticks int }

func (t *hotTicker) Tick(now Cycle) bool { t.ticks++; return true }

// BenchmarkEngineAllHot measures the wake machinery's overhead in the
// engine's worst case: every component hint-less and always busy, so
// nothing can ever be skipped. This bounds the regression the wake
// structure can inflict on fully-busy systems.
func BenchmarkEngineAllHot(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.Register("h", &hotTicker{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(Cycle(b.N))
}

// parkTicker hints CycleMax (never wakes on its own); only Signal can
// get it ticked.
type parkTicker struct{ ticks int }

func (t *parkTicker) Tick(now Cycle) bool    { t.ticks++; return false }
func (t *parkTicker) NextWake(_ Cycle) Cycle { return CycleMax }

// BenchmarkEngineSignal measures the Signal path: re-arming a parked
// ticker by identity lookup.
func BenchmarkEngineSignal(b *testing.B) {
	e := NewEngine()
	ts := make([]*parkTicker, 32)
	for i := range ts {
		ts[i] = &parkTicker{}
		e.Register("t", ts[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Signal(ts[i%len(ts)])
		e.Step()
	}
}
