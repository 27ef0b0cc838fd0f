// Package sim provides the deterministic discrete-event simulation kernel
// shared by every simulator in this repository: a nanosecond-resolution
// virtual clock, a 4-ary indexed-heap event queue with a stable tiebreak,
// timers, and a seeded random-number source.
//
// The kernel is deliberately single-threaded: all model state is mutated
// only from event callbacks, which the engine runs one at a time in
// (time, insertion) order. Determinism across runs with the same seed is a
// hard invariant relied on by the experiment harness.
//
// Events are pooled: the engine recycles Event objects through a per-engine
// free list once they fire or are cancelled. Callers therefore never hold a
// *Event; Schedule and After return a generation-checked Handle whose
// Cancel degrades to a no-op once the underlying Event has been recycled.
package sim

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation. It is a distinct type to keep wall-clock durations from
// leaking into the models.
type Time int64

// Common time unit constants, usable as multipliers: 5*sim.Microsecond.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// MaxTime is the largest representable simulation time.
const MaxTime Time = math.MaxInt64

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis converts t to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Duration converts t to a time.Duration for formatting.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String renders the time with an adaptive unit, e.g. "12.5ms".
func (t Time) String() string { return t.Duration().String() }

// FromSeconds converts floating-point seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// pooling is the process-wide default for event free-list recycling,
// captured by each engine at construction. It exists so the determinism
// test matrix can prove pooled and unpooled runs are byte-identical; leave
// it on otherwise.
var pooling atomic.Bool

func init() { pooling.Store(true) }

// SetPooling sets the process-wide default for Event free-list recycling.
// Engines capture the value at NewEngine time; changing it never affects a
// live engine.
func SetPooling(on bool) { pooling.Store(on) }

// PoolingEnabled reports the current process-wide default.
func PoolingEnabled() bool { return pooling.Load() }

// Event is a scheduled callback. Events are ordered by (at, seq) where seq
// is the insertion order, so two events at the same instant run in the
// order they were scheduled. Events are engine-owned and recycled; callers
// interact with them only through Handles.
type Event struct {
	at  Time
	fn  func()
	afn func(any) // arg-carrying callback; set instead of fn by ScheduleArg
	arg any
	seq uint64
	idx int32 // heap index; -1 once popped or cancelled
	gen uint32
}

// Handle identifies one scheduled event. It is a value type: copy it
// freely, compare it to the zero Handle, pass it to Cancel. A Handle goes
// stale the moment its event fires, is cancelled, or is recycled — every
// operation on a stale handle is a safe no-op.
type Handle struct {
	ev  *Event
	gen uint32
}

// Cancelled reports whether the handle no longer identifies a pending
// event: the zero Handle, a fired event, a cancelled event, or an Event
// object since recycled for a different schedule.
func (h Handle) Cancelled() bool { return h.ev == nil || h.ev.gen != h.gen }

// Engine is the discrete-event scheduler. The zero value is not ready;
// use NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	events  []*Event // 4-ary min-heap on (at, seq)
	free    []*Event // recycled Event objects (pool == true)
	pool    bool
	stopped bool
	heapHW  int
	prof    *profile
	// Processed counts events executed since construction; useful for
	// progress reporting and as a runaway guard in tests.
	Processed uint64

	// interrupt hook: intrFn runs every intrEvery executed events inside
	// Run. It is invoked between callbacks (never re-entrantly), so it
	// may call Stop or inspect engine state safely.
	intrEvery uint64
	intrFn    func()
	intrAcc   uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{pool: pooling.Load()}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of scheduled-but-unfired events.
func (e *Engine) Pending() int { return len(e.events) }

// alloc takes an Event from the free list, or heap-allocates one.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{}
}

// recycle retires an Event: the generation bump invalidates every
// outstanding Handle before the object can be handed out again.
func (e *Engine) recycle(ev *Event) {
	ev.gen++
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	if e.pool {
		e.free = append(e.free, ev)
	}
}

// Schedule runs fn at absolute time at. Scheduling in the past panics: it
// always indicates a model bug, and silently clamping would mask it.
// The returned Handle may be passed to Cancel.
func (e *Engine) Schedule(at Time, fn func()) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	ev := e.alloc()
	ev.at = at
	ev.fn = fn
	ev.seq = e.seq
	e.seq++
	e.push(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// ScheduleArg runs fn(arg) at absolute time at. It exists for hot paths:
// a callback that would close over one pointer can instead pass it as arg
// and use a long-lived func(any), avoiding a closure allocation per event
// (a pointer stored in an interface does not allocate).
func (e *Engine) ScheduleArg(at Time, fn func(any), arg any) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	ev := e.alloc()
	ev.at = at
	ev.afn = fn
	ev.arg = arg
	ev.seq = e.seq
	e.seq++
	e.push(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// After runs fn after delay d (d may be zero; negative panics).
func (e *Engine) After(d Time, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.Schedule(e.now+d, fn)
}

// AfterArg runs fn(arg) after delay d (d may be zero; negative panics).
func (e *Engine) AfterArg(d Time, fn func(any), arg any) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.ScheduleArg(e.now+d, fn, arg)
}

// Cancel removes a scheduled event. Cancelling a fired, already cancelled,
// recycled, or zero handle is a no-op, so callers can cancel
// unconditionally.
func (e *Engine) Cancel(h Handle) {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.idx < 0 {
		return
	}
	e.removeAt(int(ev.idx))
	e.recycle(ev)
}

// Stop makes the current Run call return after the in-flight event
// completes. Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop was called since Run last started.
func (e *Engine) Stopped() bool { return e.stopped }

// NextEventAt returns the time of the earliest pending event; ok is
// false when the queue is empty.
func (e *Engine) NextEventAt() (at Time, ok bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

// SetInterrupt installs fn to run every n executed events inside Run,
// between callbacks. The hook is the bridge to wall-clock supervision:
// it may read wall time, poll atomic cancellation flags, and call Stop,
// none of which perturbs event ordering. n == 0 or fn == nil removes
// the hook.
func (e *Engine) SetInterrupt(n uint64, fn func()) {
	if n == 0 || fn == nil {
		e.intrEvery, e.intrFn, e.intrAcc = 0, nil, 0
		return
	}
	e.intrEvery, e.intrFn, e.intrAcc = n, fn, 0
}

// Run executes events until the queue drains, the clock passes until, or
// Stop is called. Events scheduled exactly at until are executed. The
// clock is left at the last executed event (or until, if that is later
// and events remain).
func (e *Engine) Run(until Time) {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		at := e.events[0].at
		if at > until {
			e.now = until
			return
		}
		e.now = at
		// Same-instant batch: drain every event at this timestamp —
		// including ones the callbacks schedule at it — before
		// re-checking the boundary.
		for {
			e.dispatchHead()
			if e.intrFn != nil {
				e.intrAcc++
				if e.intrAcc >= e.intrEvery {
					e.intrAcc = 0
					e.intrFn()
				}
			}
			if e.stopped || len(e.events) == 0 || e.events[0].at != at {
				break
			}
		}
	}
	if len(e.events) == 0 && e.now < until && until != MaxTime {
		e.now = until
	}
}

// RunUntilIdle executes events until none remain or Stop is called.
func (e *Engine) RunUntilIdle() { e.Run(MaxTime) }

// Step executes exactly one event if any is pending, returning true if an
// event ran.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	e.now = e.events[0].at
	e.dispatchHead()
	return true
}

// dispatchHead pops the earliest event, recycles it, and runs its
// callback. The recycle happens before the callback so that a
// self-referential Handle held by the callback is already stale — and so
// the Event object is immediately reusable by anything the callback
// schedules.
func (e *Engine) dispatchHead() {
	ev := e.popHead()
	fn, afn, arg := ev.fn, ev.afn, ev.arg
	e.recycle(ev)
	if afn != nil {
		e.execArg(afn, arg)
	} else {
		e.exec(fn)
	}
}

// Ticker invokes fn every period until cancelled via the returned stop
// function. The first tick fires one period from now. fn runs with the
// engine clock at each tick time.
func (e *Engine) Ticker(period Time, fn func()) (stop func()) {
	return e.every(period, period, fn)
}

// Sampler invokes fn at the current instant and then every period until
// cancelled via the returned stop function — Ticker with an immediate
// first fire. It is the flight recorder's scheduling hook: sampling is
// an ordinary engine event, so a recorded run replays the exact same
// event sequence every time, and the t=0 state is always captured.
// fn runs with the engine clock at each sample time.
func (e *Engine) Sampler(period Time, fn func()) (stop func()) {
	return e.every(0, period, fn)
}

// every invokes fn first after delay first, then every period, until
// the returned stop function is called.
func (e *Engine) every(first, period Time, fn func()) (stop func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: periodic callback period %v must be positive", period))
	}
	var ev Handle
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			ev = e.After(period, tick)
		}
	}
	ev = e.After(first, tick)
	return func() {
		stopped = true
		e.Cancel(ev)
	}
}

// The event queue is a 4-ary indexed min-heap on (at, seq), sifted with
// inlined comparisons: no interface dispatch, no `any` boxing, and half
// the tree depth of the binary heap it replaced. idx tracking makes
// Cancel O(log4 n) instead of a scan.

// push inserts ev and restores the heap property upward.
func (e *Engine) push(ev *Event) {
	i := len(e.events)
	e.events = append(e.events, ev)
	if len(e.events) > e.heapHW {
		e.heapHW = len(e.events)
	}
	h := e.events
	for i > 0 {
		p := (i - 1) >> 2
		pe := h[p]
		if !(ev.at < pe.at || (ev.at == pe.at && ev.seq < pe.seq)) {
			break
		}
		h[i] = pe
		pe.idx = int32(i)
		i = p
	}
	h[i] = ev
	ev.idx = int32(i)
}

// popHead removes and returns the minimum event.
func (e *Engine) popHead() *Event {
	h := e.events
	n := len(h) - 1
	ev := h[0]
	last := h[n]
	h[n] = nil
	e.events = h[:n]
	if n > 0 {
		h[0] = last
		e.siftDown(0)
	}
	ev.idx = -1
	return ev
}

// removeAt deletes the event at heap index i (Cancel's path).
func (e *Engine) removeAt(i int) {
	h := e.events
	n := len(h) - 1
	ev := h[i]
	last := h[n]
	h[n] = nil
	e.events = h[:n]
	if i < n {
		h[i] = last
		last.idx = int32(i)
		e.siftDown(i)
		if e.events[i] == last {
			e.siftUp(i)
		}
	}
	ev.idx = -1
}

func (e *Engine) siftUp(i int) {
	h := e.events
	ev := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		pe := h[p]
		if !(ev.at < pe.at || (ev.at == pe.at && ev.seq < pe.seq)) {
			break
		}
		h[i] = pe
		pe.idx = int32(i)
		i = p
	}
	h[i] = ev
	ev.idx = int32(i)
}

func (e *Engine) siftDown(i int) {
	h := e.events
	n := len(h)
	ev := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		// Minimum of up to four children.
		m, me := c, h[c]
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			je := h[j]
			if je.at < me.at || (je.at == me.at && je.seq < me.seq) {
				m, me = j, je
			}
		}
		if !(me.at < ev.at || (me.at == ev.at && me.seq < ev.seq)) {
			break
		}
		h[i] = me
		me.idx = int32(i)
		i = m
	}
	h[i] = ev
	ev.idx = int32(i)
}
