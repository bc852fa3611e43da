package sim

// Queue is a bounded FIFO whose items become visible to the consumer a
// configurable number of cycles after they are enqueued. It is the only
// sanctioned communication channel between components: because an item
// pushed during cycle N is not poppable until at least N+1, tick order
// within a cycle can never create zero-latency paths.
//
// Queue is generic so that component code stays fully typed.
type Queue[T any] struct {
	// nextReady caches the head item's visibility cycle (CycleMax when
	// empty), so CanPop, Peek and Pop decide readiness from this field
	// alone, NextReady is a field read, and wake recomputation after a
	// push is O(1).
	nextReady Cycle
	head      int // ring index of the logical front
	n         int // items queued
	cap       int // 0 = unbounded
	// buf is a power-of-two ring. It doubles when full, never past the
	// power of two covering cap for a bounded queue, and never shrinks
	// or compacts: a pop only advances head.
	buf   []queueItem[T]
	delay Cycle
	// waker, when set, re-arms the consuming ticker whenever a push
	// makes the queue transition empty -> non-empty. Pushes onto a
	// non-empty queue cannot lower NextReady (FIFO visibility follows
	// the head), so the consumer is already armed early enough.
	waker *Waker
	// probe, when set, observes the depth after every successful push
	// (timeline occupancy tracks). Unset, it costs one nil check.
	probe func(at Cycle, depth int)
}

type queueItem[T any] struct {
	v       T
	readyAt Cycle
}

// NewQueue creates a queue holding at most capacity items. Items pushed
// at cycle N become poppable at cycle N+delay (delay is clamped to a
// minimum of 1 to preserve determinism). capacity <= 0 means unbounded.
func NewQueue[T any](capacity int, delay Cycle) *Queue[T] {
	if delay < 1 {
		delay = 1
	}
	return &Queue[T]{cap: capacity, delay: delay, nextReady: CycleMax}
}

// SetWaker attaches the consuming ticker's waker. After this, any push
// that makes the queue go from empty to non-empty wakes the consumer
// at the pushed item's ready cycle. Components implement
// sim.WakerAware by forwarding the engine-provided waker to each of
// their input queues.
func (q *Queue[T]) SetWaker(w *Waker) { q.waker = w }

// SetDepthProbe attaches an observer called with the queue depth after
// every successful push (at the pushed item's visibility cycle). Used
// by the timeline's occupancy tracks; pass nil to detach.
func (q *Queue[T]) SetDepthProbe(fn func(at Cycle, depth int)) { q.probe = fn }

// Len returns the number of items in the queue (ready or not).
func (q *Queue[T]) Len() int { return q.n }

// Cap returns the queue capacity (0 = unbounded).
func (q *Queue[T]) Cap() int { return q.cap }

// Full reports whether another Push would be rejected.
func (q *Queue[T]) Full() bool { return q.cap > 0 && q.n >= q.cap }

// Space returns how many more items fit; a very large number if unbounded.
func (q *Queue[T]) Space() int {
	if q.cap <= 0 {
		return int(^uint(0) >> 1)
	}
	return q.cap - q.n
}

// Push enqueues v at time now, to become visible at now+delay. It
// reports false (and drops nothing — caller keeps v) when full.
func (q *Queue[T]) Push(v T, now Cycle) bool {
	return q.PushAt(v, now+q.delay)
}

// PushAt enqueues v to become visible at the given absolute cycle.
// Visibility never reorders items: an item is poppable only after every
// item ahead of it has been popped, and no earlier than readyAt.
func (q *Queue[T]) PushAt(v T, readyAt Cycle) bool {
	if q.Full() {
		return false
	}
	if q.n == len(q.buf) {
		q.grow()
	}
	if q.n == 0 { // empty -> non-empty: new head
		q.nextReady = readyAt
		q.waker.Wake(readyAt)
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = queueItem[T]{v: v, readyAt: readyAt}
	q.n++
	if q.probe != nil {
		q.probe(readyAt, q.n)
	}
	return true
}

// minRing is the ring size of a queue's first allocation.
const minRing = 4

// grow doubles the full ring, unrolling it so the front lands at
// index 0.
func (q *Queue[T]) grow() {
	size := 2 * len(q.buf)
	if size < minRing {
		size = minRing
	}
	buf := make([]queueItem[T], size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// CanPop reports whether the head item exists and is ready at time now.
func (q *Queue[T]) CanPop(now Cycle) bool { return q.nextReady <= now }

// Peek returns the head item without removing it. ok is false when the
// head is missing or not yet ready.
func (q *Queue[T]) Peek(now Cycle) (v T, ok bool) {
	if q.nextReady > now {
		return v, false
	}
	return q.buf[q.head].v, true
}

// Pop removes and returns the head item if it is ready at time now.
func (q *Queue[T]) Pop(now Cycle) (v T, ok bool) {
	if q.nextReady > now {
		return v, false
	}
	return q.PopReady(), true
}

// PopReady removes and returns the head item without re-checking
// readiness. It is the fast path for the ubiquitous Peek-then-Pop and
// CanPop-then-Pop patterns, which otherwise evaluate CanPop twice per
// dequeue. The caller must have established readiness at the current
// cycle (via CanPop or Peek) since the last mutation; calling it on an
// empty queue panics.
func (q *Queue[T]) PopReady() T {
	if q.n == 0 {
		panic("sim: PopReady on an empty queue")
	}
	it := &q.buf[q.head]
	v := it.v
	*it = queueItem[T]{} // release references for the GC
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	if q.n == 0 {
		q.nextReady = CycleMax
	} else {
		q.nextReady = q.buf[q.head].readyAt
	}
	return v
}

// NextReady returns the cycle at which the head item becomes poppable,
// or CycleMax when the queue is empty. Used for engine wake hints.
func (q *Queue[T]) NextReady() Cycle { return q.nextReady }

// slot returns the ring slot of logical index i (0 = head).
func (q *Queue[T]) slot(i int) *queueItem[T] {
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}

// All returns the queued values in order (ready or not). The returned
// slice is freshly allocated; mutating it does not affect the queue.
// Intended for inspection in tests and candidate searches.
func (q *Queue[T]) All() []T {
	out := make([]T, q.n)
	for i := range out {
		out[i] = q.slot(i).v
	}
	return out
}

// Get returns the item at index i (0 = head) without removing it,
// regardless of readiness.
func (q *Queue[T]) Get(i int) (v T, ok bool) {
	if i < 0 || i >= q.n {
		return v, false
	}
	return q.slot(i).v, true
}

// RemoveAt removes and returns the item at index i (0 = head) regardless
// of readiness. Used by the stitch engine, which may pull candidates
// from the middle of a partition. The shorter side of the ring shifts
// over the gap, so removals near the head (the stitch search window)
// cost a few moves however deep the queue is.
func (q *Queue[T]) RemoveAt(i int) (v T, ok bool) {
	if i < 0 || i >= q.n {
		return v, false
	}
	v = q.slot(i).v
	if i < q.n/2 {
		// Shift the items ahead of i back by one and advance the head.
		for j := i; j > 0; j-- {
			*q.slot(j) = *q.slot(j - 1)
		}
		*q.slot(0) = queueItem[T]{}
		q.head = (q.head + 1) & (len(q.buf) - 1)
	} else {
		// Shift the items behind i forward by one.
		for j := i; j < q.n-1; j++ {
			*q.slot(j) = *q.slot(j + 1)
		}
		*q.slot(q.n - 1) = queueItem[T]{}
	}
	q.n--
	if q.n == 0 {
		q.nextReady = CycleMax
	} else if i == 0 {
		q.nextReady = q.slot(0).readyAt
	}
	return v, true
}

// ReadyAt returns the visibility cycle of the item at index i.
func (q *Queue[T]) ReadyAt(i int) Cycle { return q.slot(i).readyAt }
