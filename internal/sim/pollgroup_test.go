package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// This file pins poll groups to the per-request scheduling they
// replace. A random storm of requests contends for two owners' small
// slot files (an MSHR in miniature) and runs two ways: every stalled
// request re-polled by its own 4-cycle closure, and every stalled
// request parked in a poll group. Both runs must fire the same
// accepts and follow-ups at the same cycles in the same order, count
// the same stalls, and process the same engine rounds.

// stormMode selects how stalled requests are retried.
type stormMode int

const (
	modeClosure  stormMode = iota // one self-rescheduling closure each
	modeGroup                     // Scheduler.Park
	modeVolatile                  // Park, with an owner whose version never repeats
)

type stormReq struct {
	id, key int
	owner   *stormOwner
}

// stormOwner accepts a request while it has a free slot or already
// holds the request's key; each accept takes a reference on the key,
// and a later release drops it.
type stormOwner struct {
	st       *storm
	name     string
	slots    int
	held     map[int]int
	version  uint64
	volatile bool
}

func (o *stormOwner) Poll(ref any, now Cycle) bool {
	r := ref.(*stormReq)
	o.st.logPoll(now, r)
	if len(o.held) >= o.slots && o.held[r.key] == 0 {
		o.st.stalls++
		return false
	}
	o.held[r.key]++
	o.version++
	o.st.accept(now, r)
	return true
}

func (o *stormOwner) Stalled(n int) {
	o.st.stalls += n
	o.st.stalledCalls++
	if n > o.st.maxGroup {
		o.st.maxGroup = n
	}
}

func (o *stormOwner) Version() uint64 {
	if o.volatile {
		o.version++
	}
	return o.version
}

func (o *stormOwner) release(key int) {
	o.version++
	if o.held[key]--; o.held[key] == 0 {
		delete(o.held, key)
	}
}

// storm is one run of the random poll storm.
type storm struct {
	mode   stormMode
	s      *Scheduler
	rng    *Rand
	owners [2]*stormOwner
	nextID int
	left   int // arrivals still to come

	// events is the accept/follow-up sequence; polls additionally
	// records every individual poll (complete only when no poll was
	// charged through Stalled).
	events       []string
	polls        []string
	stalls       int
	stalledCalls int
	maxGroup     int
	done         int
}

func newStorm(mode stormMode, seed uint64) *storm {
	st := &storm{mode: mode, s: NewScheduler(), rng: NewRand(seed), left: 400}
	for i := range st.owners {
		st.owners[i] = &stormOwner{st: st, name: fmt.Sprintf("o%d", i), slots: 2 + i,
			held: map[int]int{}, volatile: mode == modeVolatile}
	}
	return st
}

func (st *storm) logPoll(now Cycle, r *stormReq) {
	st.polls = append(st.polls, fmt.Sprintf("%d poll %s#%d", now, r.owner.name, r.id))
}

// accept schedules the request's follow-up 1 or exactly PollInterval
// cycles later (the bucket a rejected poll re-parks into), where it
// either releases its key at once or a few cycles after.
func (st *storm) accept(now Cycle, r *stormReq) {
	st.events = append(st.events, fmt.Sprintf("%d accept %s#%d", now, r.owner.name, r.id))
	delay := Cycle(1)
	if st.rng.Intn(2) == 0 {
		delay = PollInterval
	}
	st.s.After(now, delay, func(at Cycle) {
		st.events = append(st.events, fmt.Sprintf("%d follow %s#%d", at, r.owner.name, r.id))
		if st.rng.Intn(2) == 0 {
			r.owner.release(r.key)
			st.done++
			return
		}
		st.s.After(at, Cycle(1+st.rng.Intn(12)), func(Cycle) {
			r.owner.release(r.key)
			st.done++
		})
	})
}

// stalled retries a rejected request in the run's mode.
func (st *storm) stalled(r *stormReq, now Cycle) {
	if st.mode != modeClosure {
		st.s.Park(r.owner, r, now)
		return
	}
	var retry func(Cycle)
	retry = func(at Cycle) {
		if !r.owner.Poll(r, at) {
			st.s.After(at, PollInterval, retry)
		}
	}
	st.s.After(now, PollInterval, retry)
}

// arrive issues a burst of new requests, then schedules the next burst
// 1–6 cycles later, so fresh stalls interleave with re-parked ones.
func (st *storm) arrive(now Cycle) {
	for n := 1 + st.rng.Intn(4); n > 0 && st.left > 0; n-- {
		st.left--
		r := &stormReq{id: st.nextID, key: st.rng.Intn(6), owner: st.owners[st.rng.Intn(2)]}
		st.nextID++
		if !r.owner.Poll(r, now) {
			st.stalled(r, now)
		}
	}
	if st.left > 0 {
		st.s.After(now, Cycle(1+st.rng.Intn(6)), st.arrive)
	}
}

func (st *storm) run(t *testing.T) *Engine {
	e := NewEngine()
	e.Register("sched", st.s)
	st.s.At(0, st.arrive)
	total := st.left
	if _, err := e.RunUntil(func() bool { return st.left == 0 && st.done == total }, 1<<20); err != nil {
		t.Fatal(err)
	}
	if p := st.s.Pending(); p != 0 {
		t.Fatalf("mode %d: %d entries still pending", st.mode, p)
	}
	return e
}

func TestPollGroupsMatchPerRequestPolls(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		ref := newStorm(modeClosure, seed)
		refEng := ref.run(t)
		for _, mode := range []stormMode{modeGroup, modeVolatile} {
			got := newStorm(mode, seed)
			eng := got.run(t)
			if !reflect.DeepEqual(got.events, ref.events) {
				t.Fatalf("seed %d mode %d: accept/follow-up sequence differs\n%s",
					seed, mode, firstDiff(got.events, ref.events))
			}
			if got.stalls != ref.stalls {
				t.Errorf("seed %d mode %d: stalls %d, per-request polls counted %d", seed, mode, got.stalls, ref.stalls)
			}
			if eng.Rounds() != refEng.Rounds() || eng.Now() != refEng.Now() {
				t.Errorf("seed %d mode %d: rounds %d at cycle %d, per-request run %d at %d",
					seed, mode, eng.Rounds(), eng.Now(), refEng.Rounds(), refEng.Now())
			}
			switch mode {
			case modeVolatile:
				// Nothing charged through Stalled: every poll happened,
				// so the full poll sequence must match.
				if got.stalledCalls != 0 {
					t.Fatalf("seed %d: volatile owner took the unchanged-version path", seed)
				}
				if !reflect.DeepEqual(got.polls, ref.polls) {
					t.Fatalf("seed %d: poll sequence differs\n%s", seed, firstDiff(got.polls, ref.polls))
				}
			case modeGroup:
				if got.stalledCalls == 0 || got.maxGroup < 2 {
					t.Errorf("seed %d: storm never charged a multi-member group through Stalled (calls %d, max %d)",
						seed, got.stalledCalls, got.maxGroup)
				}
			}
		}
		if len(ref.events) < 800 {
			t.Fatalf("seed %d: storm too small (%d events)", seed, len(ref.events))
		}
	}
}

func firstDiff(got, want []string) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("at %d: got %q, want %q", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(got), len(want))
}
