package sim

import (
	"sort"
	"testing"
)

// FuzzEngineSchedule drives the pooled-event engine with a fuzz-decoded op
// sequence — schedule (At/After), cancel through Timer handles (including
// stale handles to fired events), partial RunUntil advances, and parent
// events whose callbacks schedule, cancel and stop from inside the run — and
// checks the fired sequence against a reference model: a plain list
// stable-sorted by (at, insertion order) with cancelled entries removed. This
// is the oracle for the invariants the pooling and the hold-model root
// replacement make subtle: recycling must never let a stale Timer cancel an
// unrelated event that reuses its struct, a compaction or Stop inside a
// callback must never let the fired event's root slot survive, and the
// (at, seq) tie-break must hold across compaction passes.
//
// Outer ops are one byte b, decoded by b%4: 0 At, 1 After (or, with the high
// bit set, a parent event), 2 cancel one handle, 3 RunUntil. A firing parent
// reads a count and then that many in-callback ops from the same stream:
// 0 schedule a child, 1 schedule a child parent, 2 cancel a run of up to 128
// handles (enough to compact), 3 Stop.
func FuzzEngineSchedule(f *testing.F) {
	f.Add([]byte{0, 10, 1, 5, 3, 20, 0, 5, 2, 0, 3, 255})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 1, 2, 1, 3, 0})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 2, 7, 2, 6, 2, 5, 2, 4, 3, 200})
	f.Add([]byte{0, 9, 0, 1, 0x81, 1, 3, 2, 3, 0, 4, 3, 0, 0, 1, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		eng := NewEngine()
		type ref struct {
			at       Time
			id       int
			canceled bool
		}
		var model []ref
		var timers []Timer
		var fired []int
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		// cancel cancels handle i, possibly stale or already cancelled. Only a
		// live handle removes the event; cancelling a fired or
		// already-cancelled timer must be inert, so the model entry flips
		// only when the engine agrees the event is still live.
		cancel := func(i int) {
			if timers[i].Active() {
				model[i].canceled = true
			}
			timers[i].Cancel()
		}
		var schedule func(d Time, parent bool)
		schedule = func(d Time, parent bool) {
			id := len(model)
			at := eng.Now() + d
			model = append(model, ref{at: at, id: id})
			timers = append(timers, eng.At(at, func() {
				if eng.Now() != at {
					t.Fatalf("event %d fired at %v, scheduled for %v", id, eng.Now(), at)
				}
				fired = append(fired, id)
				if !parent {
					return
				}
				for k := next() % 8; k > 0; k-- {
					switch op := next() % 4; op {
					case 0, 1:
						schedule(Time(next())*Microsecond, op == 1)
					case 2:
						i, n := int(next()), int(next())%128+1
						for j := 0; j < n; j++ {
							cancel((i + j) % len(timers))
						}
					case 3:
						eng.Stop()
					}
				}
			}))
		}
		for pos < len(data) {
			b := next()
			switch b % 4 {
			case 0, 1: // At / After with a bounded delta — identical semantics here
				schedule(Time(next())*Microsecond, b%4 == 1 && b >= 0x80)
			case 2:
				if len(timers) == 0 {
					continue
				}
				cancel(int(next()) % len(timers))
			case 3: // partial drain
				eng.RunUntil(eng.Now() + Time(next())*Microsecond)
			}
			if eng.hole {
				t.Fatal("RunUntil returned with the fired event's root slot still open")
			}
		}
		for eng.PendingRaw() > 0 { // a parent's Stop may end a Run early
			eng.Run()
		}

		var want []int
		for _, r := range model {
			if !r.canceled {
				want = append(want, r.id)
			}
		}
		// Engine order is (at, schedule seq); schedule seq is insertion order,
		// so a stable sort of the surviving model entries by time is the oracle.
		sort.SliceStable(want, func(i, j int) bool { return model[want[i]].at < model[want[j]].at })

		if len(fired) != len(want) {
			t.Fatalf("fired %d events, model expects %d", len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("firing order diverged at %d: got event %d (at %v), want %d (at %v)",
					i, fired[i], model[fired[i]].at, want[i], model[want[i]].at)
			}
		}
		if eng.Pending() != 0 {
			t.Fatalf("%d events still pending after Run", eng.Pending())
		}
		if eng.Fired() != uint64(len(fired)) {
			t.Fatalf("Fired() = %d, callbacks ran %d times", eng.Fired(), len(fired))
		}
	})
}
