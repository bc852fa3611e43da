package sim

import (
	"strings"
	"testing"
)

// counter ticks until it reaches its target, reporting progress while
// counting and optionally hinting a wake cycle.
type counter struct {
	n, target int
	ticks     []Cycle
}

func (c *counter) Tick(now Cycle) bool {
	c.ticks = append(c.ticks, now)
	if c.n < c.target {
		c.n++
		return true
	}
	return false
}

type hintedSleeper struct {
	wakeAt Cycle
	fired  bool
}

func (s *hintedSleeper) Tick(now Cycle) bool {
	if !s.fired && now >= s.wakeAt {
		s.fired = true
		return true
	}
	return false
}

func (s *hintedSleeper) NextWake(now Cycle) Cycle {
	if s.fired {
		return CycleMax
	}
	return s.wakeAt
}

func TestEngineStepAdvancesTime(t *testing.T) {
	e := NewEngine()
	c := &counter{target: 3}
	e.Register("c", c)
	if e.Now() != 0 {
		t.Fatalf("new engine at cycle %d, want 0", e.Now())
	}
	e.Step()
	e.Step()
	if e.Now() != 2 {
		t.Fatalf("after two steps at cycle %d, want 2", e.Now())
	}
	if len(c.ticks) != 2 || c.ticks[0] != 0 || c.ticks[1] != 1 {
		t.Fatalf("ticks = %v, want [0 1]", c.ticks)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	c := &counter{target: 10}
	e.Register("c", c)
	end, err := e.RunUntil(func() bool { return c.n >= 10 }, 1000)
	if err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if end != 10 {
		t.Fatalf("finished at cycle %d, want 10", end)
	}
}

func TestEngineRunUntilLimit(t *testing.T) {
	e := NewEngine()
	e.Register("c", &counter{target: 1 << 30})
	_, err := e.RunUntil(func() bool { return false }, 50)
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("want cycle-limit error, got %v", err)
	}
}

func TestEngineIdleSkipUsesHints(t *testing.T) {
	e := NewEngine()
	s := &hintedSleeper{wakeAt: 100000}
	e.Register("s", s)
	steps := 0
	done := func() bool { steps++; return s.fired }
	end, err := e.RunUntil(done, 200000)
	if err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if end < 100000 {
		t.Fatalf("finished at %d, want >= 100000", end)
	}
	// With the skip, we should take ~2 rounds, not 100k.
	if steps > 10 {
		t.Fatalf("took %d polls; idle skip did not engage", steps)
	}
}

func TestEngineDeadlockDetection(t *testing.T) {
	e := NewEngine()
	e.Register("s", &hintedSleeper{fired: true}) // never has work again
	_, err := e.RunUntil(func() bool { return false }, 1000)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
}

func TestEngineRegisterNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register(nil) did not panic")
		}
	}()
	NewEngine().Register("x", nil)
}

func TestEngineRunElapsesExactly(t *testing.T) {
	e := NewEngine()
	e.Register("s", &hintedSleeper{wakeAt: CycleMax})
	e.Run(500)
	if e.Now() != 500 {
		t.Fatalf("Run(500) ended at %d", e.Now())
	}
}

func TestRunUntilDoneAtStart(t *testing.T) {
	e := NewEngine()
	e.Register("c", &counter{target: 0})
	end, err := e.RunUntil(func() bool { return true }, 10)
	if err != nil || end != 0 {
		t.Fatalf("got end=%d err=%v, want 0,nil", end, err)
	}
}

func TestEngineComponents(t *testing.T) {
	e := NewEngine()
	if e.Components() != 0 {
		t.Fatal("fresh engine has components")
	}
	e.Register("a", &counter{})
	e.Register("b", &counter{})
	if e.Components() != 2 {
		t.Fatalf("Components = %d", e.Components())
	}
}

// TestEngineSignalHintlessTicksOnce: a hint-less ticker is due every
// round already, so a Signal must not make it tick twice in the next
// one.
func TestEngineSignalHintlessTicksOnce(t *testing.T) {
	e := NewEngine()
	h := &hotTicker{}
	e.Register("h", h)
	e.Signal(h) // arms it for the next cycle, when it is due anyway
	e.Step()
	e.Step()
	if h.ticks != 2 {
		t.Fatalf("signalled hint-less ticker ticked %d times in two rounds, want 2", h.ticks)
	}
}
