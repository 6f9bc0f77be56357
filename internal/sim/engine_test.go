package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1e12 {
		t.Fatalf("Second = %d, want 1e12", int64(Second))
	}
	if Millisecond*1000 != Second || Microsecond*1000 != Millisecond || Nanosecond*1000 != Microsecond {
		t.Fatal("unit ladder broken")
	}
	if got := (3 * Millisecond).Seconds(); got != 0.003 {
		t.Fatalf("Seconds() = %v, want 0.003", got)
	}
	if got := (250 * Microsecond).Millis(); got != 0.25 {
		t.Fatalf("Millis() = %v, want 0.25", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0s"},
		{Second, "1s"},
		{3 * Millisecond, "3.000ms"},
		{5 * Microsecond, "5.000us"},
		{80 * Nanosecond, "80.000ns"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestFromSeconds(t *testing.T) {
	if got := FromSeconds(0.003); got != 3*Millisecond {
		t.Fatalf("FromSeconds(0.003) = %v", got)
	}
	if got := FromSeconds(-1e-6); got != -Microsecond {
		t.Fatalf("FromSeconds(-1e-6) = %v", got)
	}
}

func TestTxTimeExact(t *testing.T) {
	// 1000 B at 100 Gbps is exactly 80 ns.
	if got := TxTime(1000, 100*Gbps); got != 80*Nanosecond {
		t.Fatalf("TxTime(1000, 100G) = %v, want 80ns", got)
	}
	// 1000 B at 25 Gbps is exactly 320 ns.
	if got := TxTime(1000, 25*Gbps); got != 320*Nanosecond {
		t.Fatalf("TxTime(1000, 25G) = %v, want 320ns", got)
	}
	// 64 B at 100 Gbps is 5.12 ns.
	if got := TxTime(64, 100*Gbps); got != Time(5120) {
		t.Fatalf("TxTime(64, 100G) = %v ps, want 5120 ps", int64(got))
	}
}

func TestTxTimePanicsOnZeroRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TxTime(100, 0)
}

func TestRateHelpers(t *testing.T) {
	if got := BDPBytes(100*Gbps, 6*Millisecond); got != 75_000_000 {
		t.Fatalf("BDP(100G, 6ms) = %d, want 75e6", got)
	}
	if got := RateOf(12_500_000, Millisecond); got != 100*Gbps {
		t.Fatalf("RateOf = %v, want 100Gbps", got)
	}
	if got := BytesOver(8*Gbps, Millisecond); got != 1_000_000 {
		t.Fatalf("BytesOver = %d, want 1e6", got)
	}
	if got := ClampRate(5*Gbps, 10*Gbps, 20*Gbps); got != 10*Gbps {
		t.Fatalf("ClampRate low = %v", got)
	}
	if got := ClampRate(50*Gbps, 10*Gbps, 20*Gbps); got != 20*Gbps {
		t.Fatalf("ClampRate high = %v", got)
	}
	if got := ClampRate(15*Gbps, 10*Gbps, 20*Gbps); got != 15*Gbps {
		t.Fatalf("ClampRate mid = %v", got)
	}
}

func TestRateString(t *testing.T) {
	if got := (25 * Gbps).String(); got != "25Gbps" {
		t.Fatalf("got %q", got)
	}
	if got := (5 * Mbps).String(); got != "5Mbps" {
		t.Fatalf("got %q", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30*Nanosecond, func() { got = append(got, 3) })
	e.At(10*Nanosecond, func() { got = append(got, 1) })
	e.At(20*Nanosecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if e.Now() != 30*Nanosecond {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Microsecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of schedule order: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits int
	e.At(Microsecond, func() {
		hits++
		e.After(Microsecond, func() {
			hits++
			e.After(Microsecond, func() { hits++ })
		})
	})
	e.Run()
	if hits != 3 {
		t.Fatalf("hits = %d, want 3", hits)
	}
	if e.Now() != 3*Microsecond {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(Microsecond, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() = false")
	}
	// Cancelling again (and cancelling a zero Timer) must be safe.
	ev.Cancel()
	var zero Timer
	zero.Cancel()
	if zero.Active() || zero.Canceled() {
		t.Fatal("zero Timer must be inert")
	}
}

// A Timer handle must go inert once its event fires: cancelling it afterwards
// may not disturb an unrelated event that recycled the same Event struct.
func TestEngineStaleTimerIsInert(t *testing.T) {
	e := NewEngine()
	var fired int
	ev := e.At(Microsecond, func() { fired++ })
	e.Run()
	if ev.Active() {
		t.Fatal("fired timer still active")
	}
	// Schedule a new event; with a recycled struct this would be corrupted
	// by a stale Cancel if generations were not checked.
	e.At(2*Microsecond, func() { fired++ })
	ev.Cancel()
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (stale Cancel must not kill the new event)", fired)
	}
	if ev.Canceled() {
		t.Fatal("stale Cancel must not report Canceled")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, d := range []Time{Microsecond, 2 * Microsecond, 3 * Microsecond} {
		d := d
		e.At(d, func() { got = append(got, d) })
	}
	e.RunUntil(2 * Microsecond)
	if len(got) != 2 {
		t.Fatalf("got %d events, want 2", len(got))
	}
	if e.Now() != 2*Microsecond {
		t.Fatalf("Now = %v, want 2us", e.Now())
	}
	e.RunUntil(10 * Microsecond)
	if len(got) != 3 {
		t.Fatalf("got %d events, want 3", len(got))
	}
	// Clock advances to the deadline even after the queue drains.
	if e.Now() != 10*Microsecond {
		t.Fatalf("Now = %v, want 10us", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(Microsecond, func() { count++; e.Stop() })
	e.At(2*Microsecond, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	// Resuming picks up the remaining event.
	e.Run()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(0, func() {})
	})
	e.Run()
}

// Property: events always fire in nondecreasing timestamp order, regardless
// of insertion order.
func TestEngineHeapProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			at := Time(d) * Nanosecond
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving cancels preserves ordering of survivors and never
// fires a cancelled event.
func TestEngineCancelProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		e := NewEngine()
		type rec struct {
			ev       Timer
			at       Time
			canceled bool
		}
		n := 1 + rng.Intn(100)
		recs := make([]*rec, n)
		var fired []Time
		for i := range recs {
			r := &rec{at: Time(rng.Intn(1000)) * Nanosecond}
			r.ev = e.At(r.at, func() { fired = append(fired, r.at) })
			recs[i] = r
		}
		want := 0
		for _, r := range recs {
			if rng.Intn(2) == 0 {
				r.ev.Cancel()
				r.canceled = true
			} else {
				want++
			}
		}
		e.Run()
		if len(fired) != want {
			t.Fatalf("trial %d: fired %d, want %d", trial, len(fired), want)
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			t.Fatalf("trial %d: out of order: %v", trial, fired)
		}
	}
}

func TestEngineStopBeforeRunIsHonored(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(Microsecond, func() { count++ })
	// A Stop issued before the run starts (e.g. setup code aborting) must
	// make the next run return immediately instead of being swallowed.
	e.Stop()
	e.RunUntil(10 * Microsecond)
	if count != 0 {
		t.Fatalf("count = %d, want 0: pre-set Stop was swallowed", count)
	}
	if e.Now() != 0 {
		t.Fatalf("Now = %v, want 0 (stopped run must not advance the clock)", e.Now())
	}
	// The stop is consumed: the next run executes normally.
	e.RunUntil(10 * Microsecond)
	if count != 1 {
		t.Fatalf("count = %d, want 1 after resuming", count)
	}
	if e.Now() != 10*Microsecond {
		t.Fatalf("Now = %v, want 10us", e.Now())
	}
}

func TestEnginePendingExcludesCancelled(t *testing.T) {
	e := NewEngine()
	timers := make([]Timer, 10)
	for i := range timers {
		timers[i] = e.At(Microsecond, func() {})
	}
	if e.Pending() != 10 || e.PendingRaw() != 10 {
		t.Fatalf("Pending = %d, PendingRaw = %d, want 10, 10", e.Pending(), e.PendingRaw())
	}
	for i := 0; i < 4; i++ {
		timers[i].Cancel()
	}
	if e.Pending() != 6 {
		t.Fatalf("Pending = %d, want 6 (cancelled events must not count)", e.Pending())
	}
	if e.PendingRaw() != 10 {
		t.Fatalf("PendingRaw = %d, want 10 (heap still holds cancelled events)", e.PendingRaw())
	}
	e.Run()
	if e.Pending() != 0 || e.PendingRaw() != 0 {
		t.Fatalf("after Run: Pending = %d, PendingRaw = %d, want 0, 0", e.Pending(), e.PendingRaw())
	}
}

// Cancel-heavy pacing workloads (one cancel+reschedule per packet) must not
// grow the heap with cancelled corpses, and the engine must serve the churn
// from its free list rather than the Go heap.
func TestEngineCancelHeavyHeapBounded(t *testing.T) {
	e := NewEngine()
	const n = 1_000_000
	var live Timer
	peakRaw := 0
	for i := 0; i < n; i++ {
		live.Cancel()
		live = e.After(Time(i%100+1)*Nanosecond, func() {})
		if raw := e.PendingRaw(); raw > peakRaw {
			peakRaw = raw
		}
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	// Compaction keeps the heap proportional to live timers (1 here), far
	// below the 1e6 cancelled events pushed through it.
	if peakRaw > 4*compactMin {
		t.Fatalf("peak heap size %d: compaction failed to bound cancelled events", peakRaw)
	}
	if e.EventAllocs() > uint64(4*compactMin) {
		t.Fatalf("%d event allocations for %d schedules: free list not reused", e.EventAllocs(), n)
	}
	if e.EventRecycles() < n/2 {
		t.Fatalf("only %d recycles for %d schedules", e.EventRecycles(), n)
	}
	e.Run()
}

// Two identical cancel-heavy runs must produce bit-identical engine state:
// compaction and recycling may not perturb firing order.
func TestEngineCancelHeavyDeterminism(t *testing.T) {
	run := func() (uint64, Time, uint64) {
		e := NewEngine()
		var digest uint64 = 14695981039346656037
		mix := func(v uint64) {
			const prime = 1099511628211
			for i := 0; i < 8; i++ {
				digest = (digest ^ (v & 0xff)) * prime
				v >>= 8
			}
		}
		rng := rand.New(rand.NewSource(42))
		var pacers [8]Timer
		for i := 0; i < 200_000; i++ {
			i := i
			slot := rng.Intn(len(pacers))
			pacers[slot].Cancel()
			pacers[slot] = e.After(Time(rng.Intn(500)+1)*Nanosecond, func() {
				mix(uint64(i))
				mix(uint64(e.Now()))
			})
			if i%17 == 0 {
				e.RunUntil(e.Now() + 100*Nanosecond)
			}
		}
		e.Run()
		return e.Fired(), e.Now(), digest
	}
	f1, n1, d1 := run()
	f2, n2, d2 := run()
	if f1 != f2 || n1 != n2 || d1 != d2 {
		t.Fatalf("nondeterministic: run1=(%d,%v,%#x) run2=(%d,%v,%#x)", f1, n1, d1, f2, n2, d2)
	}
}

// Compaction rebuilds the 4-ary heap from whatever survives. Survivor counts
// of 0, 1 and 2 hit the empty and trivial rebuilds; 4, 5 and 6 straddle the
// root's last child (slot 4) and the first grandchild (slot 5). Events
// scheduled afterwards at equal and earlier times must still fire in
// (at, schedule order).
func TestEngineCompactEdges(t *testing.T) {
	for _, survivors := range []int{0, 1, 2, 4, 5, 6} {
		for trial := int64(0); trial < 20; trial++ {
			rng := rand.New(rand.NewSource(trial))
			e := NewEngine()
			type rec struct {
				at       Time
				canceled bool
			}
			var recs []rec
			var timers []Timer
			var fired []int
			schedule := func(at Time) {
				id := len(recs)
				recs = append(recs, rec{at: at})
				timers = append(timers, e.At(at, func() { fired = append(fired, id) }))
			}
			// compactMin cancellations out of compactMin+survivors events
			// trigger exactly one compaction, on the last cancel.
			n := compactMin + survivors
			for i := 0; i < n; i++ {
				schedule(Time(1+rng.Intn(8)) * Microsecond)
			}
			for _, i := range rng.Perm(n)[:compactMin] {
				timers[i].Cancel()
				recs[i].canceled = true
			}
			if e.PendingRaw() != survivors || e.Pending() != survivors {
				t.Fatalf("survivors=%d: PendingRaw = %d, Pending = %d after compaction",
					survivors, e.PendingRaw(), e.Pending())
			}
			for i := 0; i < 7; i++ {
				schedule(Time(rng.Intn(9)) * Microsecond)
			}
			e.Run()

			var want []int
			for id, r := range recs {
				if !r.canceled {
					want = append(want, id)
				}
			}
			sort.SliceStable(want, func(i, j int) bool { return recs[want[i]].at < recs[want[j]].at })
			if len(fired) != len(want) {
				t.Fatalf("survivors=%d trial %d: fired %d events, want %d", survivors, trial, len(fired), len(want))
			}
			for i := range want {
				if fired[i] != want[i] {
					t.Fatalf("survivors=%d trial %d: order diverged at %d: got %v, want %v",
						survivors, trial, i, fired, want)
				}
			}
		}
	}
}

// holdRig schedules events on an engine and keeps the reference model the
// fuzz target uses: surviving events fire in (at, insertion order).
type holdRig struct {
	e      *Engine
	at     []Time
	dead   []bool
	timers []Timer
	fired  []int
}

// schedule arms an event at t whose callback records it and then runs then.
func (r *holdRig) schedule(t Time, then func()) {
	id := len(r.at)
	r.at = append(r.at, t)
	r.dead = append(r.dead, false)
	r.timers = append(r.timers, r.e.At(t, func() {
		r.fired = append(r.fired, id)
		if then != nil {
			then()
		}
	}))
}

func (r *holdRig) cancel(id int) {
	if r.timers[id].Active() {
		r.dead[id] = true
	}
	r.timers[id].Cancel()
}

// check drains the engine and compares the firing order with the oracle.
func (r *holdRig) check(t *testing.T) {
	t.Helper()
	for r.e.PendingRaw() > 0 {
		r.e.Run()
	}
	var want []int
	for id := range r.at {
		if !r.dead[id] {
			want = append(want, id)
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return r.at[want[i]] < r.at[want[j]] })
	if len(r.fired) != len(want) {
		t.Fatalf("fired %v, want %v", r.fired, want)
	}
	for i := range want {
		if r.fired[i] != want[i] {
			t.Fatalf("firing order %v, want %v", r.fired, want)
		}
	}
}

// RunUntil leaves a fired event's root slot open while its callback runs and
// lets the callback's first schedule take it. None of that may show through
// the engine's surface: inside the callback the fired event is already gone
// from Pending and PendingRaw, every schedule/cancel/Stop mix fires in oracle
// order, and a compaction triggered from the callback never resurrects the
// fired event's recycled struct.
func TestEngineHoldEdges(t *testing.T) {
	us := Microsecond
	t.Run("pending", func(t *testing.T) {
		r := &holdRig{e: NewEngine()}
		var live, raw [2]int
		r.schedule(us, func() {
			live[0], raw[0] = r.e.Pending(), r.e.PendingRaw()
			r.schedule(r.e.Now(), nil)
			live[1], raw[1] = r.e.Pending(), r.e.PendingRaw()
		})
		for i := 0; i < 5; i++ {
			r.schedule(Time(2+i)*us, nil)
		}
		r.cancel(3)
		r.e.RunUntil(us)
		if live != [2]int{4, 5} || raw != [2]int{5, 6} {
			t.Fatalf("in callback: Pending %v, PendingRaw %v; want [4 5], [5 6]", live, raw)
		}
		if r.e.Pending() != 4 || r.e.PendingRaw() != 5 {
			t.Fatalf("after run: Pending = %d, PendingRaw = %d, want 4, 5", r.e.Pending(), r.e.PendingRaw())
		}
		r.check(t)
	})
	t.Run("schedule-0-1-3", func(t *testing.T) {
		// Children land at Now() (behind equal-time pending events), before
		// the next pending event, and after the last one.
		offsets := []Time{0, 2 * us, 9 * us}
		for _, k := range []int{0, 1, 3} {
			r := &holdRig{e: NewEngine()}
			r.schedule(us, nil)
			r.schedule(2*us, func() {
				for _, d := range offsets[:k] {
					r.schedule(r.e.Now()+d, nil)
				}
			})
			r.schedule(2*us, nil)
			r.schedule(5*us, nil)
			r.schedule(8*us, nil)
			r.check(t)
		}
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 200; trial++ {
			r := &holdRig{e: NewEngine()}
			var parent func()
			parent = func() {
				for k := rng.Intn(4); k > 0; k-- {
					var then func()
					if rng.Intn(4) == 0 {
						then = parent
					}
					r.schedule(r.e.Now()+Time(rng.Intn(20))*us, then)
				}
			}
			for i := 0; i < 1+rng.Intn(40); i++ {
				r.schedule(Time(rng.Intn(20))*us, parent)
			}
			r.check(t)
		}
	})
	t.Run("stop", func(t *testing.T) {
		for _, stopFirst := range []bool{false, true} {
			r := &holdRig{e: NewEngine()}
			r.schedule(us, func() {
				if stopFirst {
					r.e.Stop()
				}
				r.schedule(3*us, nil)
				if !stopFirst {
					r.e.Stop()
				}
			})
			r.schedule(2*us, nil)
			r.schedule(4*us, nil)
			r.e.Run()
			if r.e.Now() != us || r.e.PendingRaw() != 3 || r.e.Pending() != 3 {
				t.Fatalf("stopFirst=%v: Now = %v, PendingRaw = %d, Pending = %d; want 1us, 3, 3",
					stopFirst, r.e.Now(), r.e.PendingRaw(), r.e.Pending())
			}
			r.check(t)
		}
		// A Stop with nothing scheduled must also leave the slot closed.
		r := &holdRig{e: NewEngine()}
		r.schedule(us, r.e.Stop)
		r.schedule(2*us, nil)
		r.e.Run()
		if r.e.PendingRaw() != 1 || r.e.hole {
			t.Fatalf("PendingRaw = %d, hole = %v after a bare in-callback Stop", r.e.PendingRaw(), r.e.hole)
		}
		r.check(t)
	})
	t.Run("compact", func(t *testing.T) {
		// 2*compactMin pending events; the callback cancels compactMin+1 of
		// them, which compacts on the last cancel, with the root slot open
		// (cancel before scheduling) or already taken (schedule first).
		for _, scheduleFirst := range []bool{false, true} {
			r := &holdRig{e: NewEngine()}
			const n = 2 * compactMin
			var canceledN, raw int
			r.schedule(0, func() {
				if scheduleFirst {
					r.schedule(r.e.Now(), nil)
				}
				for id := 1; id <= compactMin+1; id++ {
					r.cancel(id)
				}
				canceledN, raw = r.e.canceledN, r.e.PendingRaw()
				r.schedule(r.e.Now(), nil)
				r.schedule(r.e.Now()+5*us, nil)
			})
			for i := 0; i < n; i++ {
				r.schedule(Time(1+i%10)*us, nil)
			}
			r.e.RunUntil(0)
			want := n - compactMin - 1
			if scheduleFirst {
				want++
			}
			if canceledN != 0 || raw != want {
				t.Fatalf("scheduleFirst=%v: after the cancels canceledN = %d, PendingRaw = %d; want 0, %d",
					scheduleFirst, canceledN, raw, want)
			}
			r.check(t)
			seen := map[*Event]bool{}
			for _, ev := range r.e.free {
				if seen[ev] {
					t.Fatalf("scheduleFirst=%v: event struct recycled twice", scheduleFirst)
				}
				seen[ev] = true
			}
		}
	})
}

// newDeepEngine returns an engine holding depth pending events at seeded
// random delays, plus a delay source over the same range. fn stops the run,
// so each Run fires exactly one event and the depth stays put.
func newDeepEngine(depth int) (e *Engine, delay func() Time, fn func()) {
	e = NewEngine()
	rng := rand.New(rand.NewSource(1))
	delay = func() Time { return Time(1+rng.Intn(depth)) * Nanosecond }
	fn = e.Stop
	for i := 0; i < depth; i++ {
		e.After(delay(), fn)
	}
	return e, delay, fn
}

// The scheduler must not allocate in steady state: heap slots, free-list
// slots and event structs are all reused once a workload has warmed up.
// Each measured batch spans more than one compaction cycle, and a single
// measured run keeps AllocsPerRun's integer average from hiding a stray
// allocation.
func TestEngineSteadyStateAllocFree(t *testing.T) {
	const depth = 4096
	t.Run("schedule+fire", func(t *testing.T) {
		e, delay, fn := newDeepEngine(depth)
		batch := func() {
			for i := 0; i < 3*depth; i++ {
				e.After(delay(), fn)
				e.Run()
			}
		}
		batch()
		if n := testing.AllocsPerRun(1, batch); n != 0 {
			t.Errorf("schedule+fire allocated %v per batch", n)
		}
		if e.Pending() != depth {
			t.Fatalf("Pending = %d, want %d", e.Pending(), depth)
		}
	})
	// Callbacks that re-arm themselves take the fired event's root slot;
	// with a cancelled arm first, compaction runs from inside callbacks.
	for _, cancelFirst := range []bool{false, true} {
		name := "hold"
		if cancelFirst {
			name = "hold+cancel"
		}
		t.Run(name, func(t *testing.T) {
			e, delay, _ := newDeepEngine(depth)
			left := 0
			var fn func()
			fn = func() {
				if cancelFirst {
					tm := e.After(delay(), fn)
					tm.Cancel()
				}
				e.After(delay(), fn)
				if left--; left == 0 {
					e.Stop()
				}
			}
			for e.Pending() > 0 { // replace the Stop-only events with fn
				e.Run()
			}
			for i := 0; i < depth; i++ {
				e.After(delay(), fn)
			}
			batch := func() {
				left = 3 * depth
				e.Run()
			}
			batch()
			if n := testing.AllocsPerRun(1, batch); n != 0 {
				t.Errorf("%s allocated %v per batch", name, n)
			}
			if e.Pending() != depth {
				t.Fatalf("Pending = %d, want %d", e.Pending(), depth)
			}
		})
	}
	t.Run("cancel+reschedule", func(t *testing.T) {
		e, delay, fn := newDeepEngine(depth)
		batch := func() {
			for i := 0; i < 3*depth; i++ {
				tm := e.After(delay(), fn)
				tm.Cancel()
				e.After(delay(), fn)
				e.Run()
			}
		}
		batch()
		if n := testing.AllocsPerRun(1, batch); n != 0 {
			t.Errorf("cancel+reschedule allocated %v per batch", n)
		}
		if e.Pending() != depth {
			t.Fatalf("Pending = %d, want %d", e.Pending(), depth)
		}
	})
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.After(Nanosecond, func() {})
		if e.Pending() > 1024 {
			e.Run()
		}
	}
	e.Run()
}
