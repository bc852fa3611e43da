package sim

import "testing"

// modelItem is one entry of the plain-slice reference queue.
type modelItem struct {
	v       int
	readyAt Cycle
}

// TestQueueMatchesSliceModel drives random Push/PushAt/Pop/PopReady/
// RemoveAt/Get sequences against a plain-slice reference and checks
// every observable after each operation: contents and order, Len,
// Full, Space, the cached NextReady, CanPop/Peek, ReadyAt, and the
// depth probe. Fill and drain phases alternate so the ring wraps,
// grows and (for bounded queues) hits its cap.
func TestQueueMatchesSliceModel(t *testing.T) {
	for _, capacity := range []int{0, 1, 3, 4, 6, 16, 33} {
		var (
			rng     = NewRand(uint64(capacity) + 7)
			q       = NewQueue[int](capacity, 2)
			model   []modelItem
			now     Cycle
			next    int
			probed  = -1
			wrapped bool
			grew    bool
			removed [3]int // RemoveAt at head, middle, tail
		)
		q.SetDepthProbe(func(_ Cycle, depth int) { probed = depth })
		fits := func() bool { return capacity == 0 || len(model) < capacity }
		for step := 0; step < 40000; step++ {
			fill := (step/400)%2 == 0
			op := rng.Intn(10)
			if !fill && op < 5 {
				op += 5 // drain phase: no pushes
			}
			ringLen := len(q.buf)
			switch {
			case op < 3:
				want := fits()
				probed = -1
				if got := q.Push(next, now); got != want {
					t.Fatalf("cap %d step %d: Push = %v, want %v", capacity, step, got, want)
				}
				if want {
					model = append(model, modelItem{next, now + 2})
					if probed != len(model) {
						t.Fatalf("cap %d step %d: probe saw depth %d, want %d", capacity, step, probed, len(model))
					}
				} else if probed != -1 {
					t.Fatalf("cap %d step %d: probe fired on a rejected push", capacity, step)
				}
				next++
			case op < 5:
				at := now + Cycle(rng.Intn(6))
				want := fits()
				if got := q.PushAt(next, at); got != want {
					t.Fatalf("cap %d step %d: PushAt = %v, want %v", capacity, step, got, want)
				}
				if want {
					model = append(model, modelItem{next, at})
				}
				next++
			case op < 7:
				v, ok := q.Pop(now)
				wantOK := len(model) > 0 && model[0].readyAt <= now
				if ok != wantOK || (ok && v != model[0].v) {
					t.Fatalf("cap %d step %d: Pop = %d,%v, want ok=%v model=%v", capacity, step, v, ok, wantOK, model)
				}
				if ok {
					model = model[1:]
				}
			case op < 8:
				if q.CanPop(now) {
					if v := q.PopReady(); v != model[0].v {
						t.Fatalf("cap %d step %d: PopReady = %d, want %d", capacity, step, v, model[0].v)
					}
					model = model[1:]
				}
			case op < 9:
				i := rng.Intn(len(model)+2) - 1 // includes both out-of-range ends
				v, ok := q.RemoveAt(i)
				if wantOK := i >= 0 && i < len(model); ok != wantOK || (ok && v != model[i].v) {
					t.Fatalf("cap %d step %d: RemoveAt(%d) = %d,%v, want ok=%v model=%v", capacity, step, i, v, ok, wantOK, model)
				}
				if ok {
					switch {
					case i == 0:
						removed[0]++
					case i == len(model)-1:
						removed[2]++
					default:
						removed[1]++
					}
					model = append(model[:i:i], model[i+1:]...)
				}
			default:
				now++
			}
			if len(q.buf) > ringLen && ringLen > 0 {
				grew = true
			}
			if q.n > 0 && q.head+q.n > len(q.buf) {
				wrapped = true
			}
			checkQueueAgainstModel(t, q, model, capacity, now, step)
		}
		// A ring of minRing slots already holds a small bounded queue,
		// and a one-item queue neither wraps nor has a middle or tail
		// distinct from its head.
		wantGrow := capacity == 0 || capacity > minRing
		roomy := capacity == 0 || capacity >= 3
		if wrapped != (capacity != 1) || grew != wantGrow || removed[0] == 0 ||
			roomy && (removed[1] == 0 || removed[2] == 0) {
			t.Errorf("cap %d: coverage wrapped=%v grew=%v removed head/mid/tail=%v", capacity, wrapped, grew, removed)
		}
	}
}

func checkQueueAgainstModel(t *testing.T, q *Queue[int], model []modelItem, capacity int, now Cycle, step int) {
	t.Helper()
	if q.Len() != len(model) {
		t.Fatalf("cap %d step %d: Len = %d, want %d", capacity, step, q.Len(), len(model))
	}
	if full := capacity > 0 && len(model) >= capacity; q.Full() != full {
		t.Fatalf("cap %d step %d: Full = %v, want %v", capacity, step, q.Full(), full)
	}
	if capacity > 0 && q.Space() != capacity-len(model) {
		t.Fatalf("cap %d step %d: Space = %d, want %d", capacity, step, q.Space(), capacity-len(model))
	}
	if capacity > 0 && len(q.buf) > max(minRing, 2*capacity-1) {
		t.Fatalf("cap %d step %d: ring grew to %d", capacity, step, len(q.buf))
	}
	wantNext := CycleMax
	if len(model) > 0 {
		wantNext = model[0].readyAt
	}
	if q.NextReady() != wantNext {
		t.Fatalf("cap %d step %d: NextReady = %d, want %d", capacity, step, q.NextReady(), wantNext)
	}
	canPop := len(model) > 0 && model[0].readyAt <= now
	if q.CanPop(now) != canPop {
		t.Fatalf("cap %d step %d: CanPop = %v, want %v", capacity, step, q.CanPop(now), canPop)
	}
	if v, ok := q.Peek(now); ok != canPop || (ok && v != model[0].v) {
		t.Fatalf("cap %d step %d: Peek = %d,%v", capacity, step, v, ok)
	}
	all := q.All()
	for i, m := range model {
		if v, ok := q.Get(i); !ok || v != m.v || all[i] != m.v || q.ReadyAt(i) != m.readyAt {
			t.Fatalf("cap %d step %d: item %d = %d (All %d, ready %d), want %v", capacity, step, i, v, all[i], q.ReadyAt(i), m)
		}
	}
	if _, ok := q.Get(len(model)); ok {
		t.Fatalf("cap %d step %d: Get past the tail succeeded", capacity, step)
	}
}
