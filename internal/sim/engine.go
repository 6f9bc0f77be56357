package sim

import "fmt"

// Event is a scheduled callback owned by an Engine. Events are pooled: once
// an event fires, is compacted away, or is popped after cancellation, its
// struct is recycled for a future At/After call. User code therefore never
// holds an *Event; it holds a Timer handle whose generation check makes
// stale handles inert (see the "Performance model" section of DESIGN.md).
type Event struct {
	gen      uint32 // bumped on recycle; stale Timer handles no-op
	canceled bool
	fn       func()
	eng      *Engine
}

// Timer is a cancellable handle to a scheduled event. The zero Timer is
// inert: Cancel is a no-op, Active and Canceled report false. Timers are
// small values and stay safe after the underlying event fires and its struct
// is recycled — the generation check rejects stale handles, so cancelling a
// long-gone timer can never disturb an unrelated event that reuses the same
// storage.
type Timer struct {
	ev       *Event
	gen      uint32
	canceled bool
}

// Cancel prevents the event from firing. Cancelling an already-fired,
// already-cancelled or zero Timer is a no-op. Cancel is O(1) amortized: the
// event stays in the heap and is discarded when popped, unless cancelled
// events come to dominate the heap, in which case they are compacted out in
// one O(n) pass (so cancel-heavy pacing workloads keep the heap proportional
// to the number of live timers).
func (t *Timer) Cancel() {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.canceled {
		return
	}
	t.canceled = true
	ev.canceled = true
	ev.fn = nil // release captured state early
	e := ev.eng
	e.live--
	e.canceledN++
	if e.canceledN >= compactMin && e.canceledN*2 > e.PendingRaw() {
		e.compact()
	}
}

// Canceled reports whether Cancel was called through this handle.
func (t *Timer) Canceled() bool { return t.canceled }

// Active reports whether the event is still scheduled and uncancelled.
func (t *Timer) Active() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.canceled
}

// compactMin is the minimum number of cancelled events before a compaction
// pass is considered; below it the lazy pop-time discard is cheaper.
const compactMin = 64

// entry is one heap slot. The (at, seq) key sits inline so sifts compare
// without dereferencing the event; seq is unique per engine, so (at, seq) is
// a strict total order and the pop sequence does not depend on heap shape.
type entry struct {
	at  Time
	seq uint64 // tie-break so equal-time events fire in schedule order
	ev  *Event
}

func (a *entry) before(b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventHeap is a 4-ary min-heap of entries: the children of slot i are
// 4i+1..4i+4. The wider fan-out halves the depth of a binary heap, and the
// four children of a slot share a cache line or two.
type eventHeap []entry

// push inserts x and sifts it up.
func (h *eventHeap) push(x entry) {
	q := append(*h, x)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
	*h = q
}

// pop removes the minimum entry, which the caller has already read at h[0].
func (h *eventHeap) pop() {
	q := *h
	n := len(q) - 1
	x := q[n]
	q[n] = entry{}
	q = q[:n]
	if n > 0 {
		q.down(0, x)
	}
	*h = q
}

// down places x at slot i or below, moving smaller children up.
func (h eventHeap) down(i int, x entry) {
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}

// init restores the heap invariant over arbitrary contents. Heaps of fewer
// than two entries are already ordered; the guard also keeps (0-2)/4, which
// Go truncates to 0, from indexing an empty slice.
func (h eventHeap) init() {
	if len(h) < 2 {
		return
	}
	for i := (len(h) - 2) / 4; i >= 0; i-- {
		h.down(i, h[i])
	}
}

// maxTime is the sentinel deadline used by Run: beyond any schedulable time.
const maxTime = Time(1)<<62 - 1

// Engine is a discrete-event simulation engine. It is not safe for
// concurrent use: all scheduling must happen from the engine goroutine
// (i.e. from within event callbacks or before Run).
//
// Scheduling follows the hold model: RunUntil does not pop a fired event
// before running its callback but leaves its root slot open as a hole, and
// the first At issued while the hole is open writes the new entry into the
// root and sifts it down. A callback that re-arms a near-future event thus
// costs one short sift instead of a full-depth pop plus a sift-up. While
// the hole is open heap[0] is a dead entry whose event is already recycled;
// every reader skips or closes it, and RunUntil closes it before it returns.
type Engine struct {
	now     Time
	heap    eventHeap
	hole    bool // heap[0] is a fired entry awaiting replacement or pop
	seq     uint64
	stopped bool
	fired   uint64

	live      int // scheduled and not cancelled
	canceledN int // cancelled but still in the heap

	free     []*Event // recycled event structs
	allocs   uint64   // events allocated from the Go heap
	recycles uint64   // events served from the free list
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed, for diagnostics and tests.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports the number of live events: scheduled and not cancelled.
func (e *Engine) Pending() int { return e.live }

// PendingRaw reports the scheduler heap size, including cancelled-but-
// unpopped events — the quantity that bounds heap memory and pop cost.
func (e *Engine) PendingRaw() int {
	if e.hole {
		return len(e.heap) - 1
	}
	return len(e.heap)
}

// EventAllocs reports how many Event structs were heap-allocated (vs served
// from the free list), for allocation tests and diagnostics.
func (e *Engine) EventAllocs() uint64 { return e.allocs }

// EventRecycles reports how many schedules reused a recycled Event struct.
func (e *Engine) EventRecycles() uint64 { return e.recycles }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// causality violations are always bugs in the caller.
func (e *Engine) At(t Time, fn func()) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.recycles++
	} else {
		ev = &Event{eng: e}
		e.allocs++
	}
	ev.fn = fn
	x := entry{at: t, seq: e.seq, ev: ev}
	if e.hole {
		e.hole = false
		e.heap.down(0, x)
	} else {
		e.heap.push(x)
	}
	e.seq++
	e.live++
	return Timer{ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: schedule after negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Stop makes Run/RunUntil return after the currently executing event. A Stop
// issued while no run is in progress is honored by the next Run/RunUntil,
// which returns immediately (consuming the stop) without executing events.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in timestamp order until the queue is empty or Stop is
// called.
func (e *Engine) Run() {
	e.RunUntil(maxTime)
}

// RunUntil executes events with timestamps <= deadline. Where Now() lands on
// return is part of the contract — callers that alternate RunUntil barriers
// (the shard scheduler in shard.go) depend on it:
//
//   - drained: the queue emptied at or before the deadline. Now() == deadline
//     for any finite deadline; a Run() (deadline = sentinel max) leaves the
//     clock at the last fired event.
//   - deadline: events remain beyond the deadline. Now() == deadline.
//   - stopped: Stop was called from a callback. Now() stays at that event's
//     timestamp — NOT the deadline — so a resumed RunUntil continues from the
//     stopping point without skipping the remaining window.
//   - pre-stopped: a Stop issued before the call is consumed and RunUntil
//     returns immediately with the clock (and queue) untouched.
//   - past deadline: a deadline at or before Now() executes nothing and
//     leaves the clock unchanged (events cannot be scheduled in the past, so
//     none can be due).
//
// Each Run/RunUntil return consumes at most one Stop, so a stopped run can
// be resumed by calling Run/RunUntil again. TestRunUntilClockContract pins
// every path above.
func (e *Engine) RunUntil(deadline Time) {
	if e.stopped {
		e.stopped = false
		return
	}
	for {
		e.closeHole()
		if len(e.heap) == 0 {
			break
		}
		top := e.heap[0]
		if top.at > deadline {
			break
		}
		next := top.ev
		if next.canceled {
			e.heap.pop()
			e.canceledN--
			e.recycle(next)
			continue
		}
		e.now = top.at
		fn := next.fn
		e.live--
		// Recycle before calling fn: the callback may schedule new events,
		// which can then reuse this struct immediately. The generation bump
		// inside recycle makes any handle to the firing event stale first.
		e.recycle(next)
		e.fired++
		e.hole = true
		fn()
		if e.stopped {
			e.closeHole()
			e.stopped = false
			return
		}
	}
	if e.now < deadline && deadline < maxTime {
		e.now = deadline
	}
}

// closeHole pops the fired entry RunUntil left at the root, if no schedule
// has taken its place.
func (e *Engine) closeHole() {
	if e.hole {
		e.hole = false
		e.heap.pop()
	}
}

// recycle returns an event struct to the free list. The generation bump
// invalidates every outstanding Timer handle to it.
func (e *Engine) recycle(ev *Event) {
	ev.gen++
	ev.fn = nil
	ev.canceled = false
	e.free = append(e.free, ev)
}

// compact removes cancelled events from the heap in one pass and restores
// the heap invariant. Relative order of survivors is preserved because their
// (at, seq) keys are untouched. An open hole is closed first so the filter
// sees only scheduled entries: the root's event is already recycled and
// would otherwise pass for a live survivor.
func (e *Engine) compact() {
	e.closeHole()
	dst := e.heap[:0]
	for _, x := range e.heap {
		if x.ev.canceled {
			e.recycle(x.ev)
		} else {
			dst = append(dst, x)
		}
	}
	clear(e.heap[len(dst):])
	e.heap = dst
	e.heap.init()
	e.canceledN = 0
}
