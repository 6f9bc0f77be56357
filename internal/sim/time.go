// Package sim provides the deterministic discrete-event simulation core used
// by every other package in this repository: an integer picosecond clock, a
// cancellable event scheduler backed by a typed 4-ary heap with inline
// (at, seq) keys, and bandwidth/serialization arithmetic.
//
// Scheduling follows the hold model of calendar and ladder queues: a fired
// event's root slot stays open while its callback runs, and the callback's
// first schedule takes it with one short sift instead of a pop plus a push
// (see Engine). The open slot is never visible outside RunUntil.
//
// The engine is single-goroutine by design: determinism (bit-identical runs
// for a given seed) is a hard requirement for reproducing the paper's
// figures. Parallelism lives one level up, in internal/exp, which runs many
// independent engines concurrently.
package sim

import "fmt"

// Time is a simulation timestamp or duration in integer picoseconds.
//
// Picoseconds keep all serialization delays exact: a 1000-byte frame on a
// 100 Gbps link takes exactly 80 ns = 80_000 ps. int64 picoseconds cover
// about 106 days of simulated time, far beyond any experiment here.
type Time int64

// Convenient duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis converts t to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats t with an adaptive unit for logs and test output.
func (t Time) String() string {
	switch {
	case t == 0:
		return "0s"
	case t%Second == 0:
		return fmt.Sprintf("%ds", t/Second)
	case t >= Millisecond || t <= -Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond || t <= -Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	}
}

// FromSeconds builds a Time from floating-point seconds, rounding to the
// nearest picosecond.
func FromSeconds(s float64) Time {
	if s >= 0 {
		return Time(s*float64(Second) + 0.5)
	}
	return Time(s*float64(Second) - 0.5)
}
