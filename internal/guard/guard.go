// Package guard is the run-governance layer: it supervises a simulation
// run so that silent failure modes — a deadlocked coupling that stops
// completing I/O, a zero-delay event livelock that freezes the clock, a
// slow conservation leak that drains throughput — surface as typed
// errors with diagnostics instead of a wedged process or a subtly wrong
// result.
//
// Three mechanisms, all opt-in (the zero Config is fully inert, so
// unguarded runs stay byte-identical to their historical output):
//
//   - A liveness watchdog on two axes. The sim-time axis trips when the
//     oldest in-flight command exceeds Config.StallHorizon with no
//     completion progress between checks. The wall-clock axis trips when
//     the engine keeps processing events while simulated time stops
//     advancing (a zero-delay cycle). Both produce a *StallError
//     carrying a Dump of engine, fabric, and device state.
//   - A conservation auditor: components implement Auditable and are
//     polled on the sim clock (and at drain); any Violation fails the
//     run with a *ViolationError.
//   - Graceful cancellation: a Stopper handle, safe to fire from signal
//     handlers or wall-clock timers on other goroutines, drains the run
//     at the next event boundary and marks the partial result truncated,
//     with the full metric and fault ledger intact.
//
// The cluster package wires all three into cluster.Run via Spec.Guard;
// cmd/srcsim exposes them as -stall-horizon, -audit, and -max-wall.
package guard

import (
	"fmt"
	"sync/atomic"

	"srcsim/internal/sim"
)

// Config selects which governance mechanisms supervise a run. The zero
// value disables everything: no events are scheduled, no engine hooks
// installed, and the run behaves byte-for-byte as if the package did
// not exist.
type Config struct {
	// StallHorizon arms the liveness watchdog: if the oldest in-flight
	// command is older than this and no command completed or failed
	// since the previous check, the run fails with a *StallError. It
	// also arms the event-storm axis. Zero disables the watchdog.
	StallHorizon sim.Time

	// Audit arms the conservation auditor: every layer's
	// AuditInvariants runs every millisecond of sim time and once more
	// at drain; any violation fails the run with a *ViolationError.
	Audit bool

	// Stop, when non-nil, is polled at event boundaries; once fired the
	// run drains and returns a truncated partial result. One Stopper
	// may be shared by several sequential runs (a SIGINT truncates the
	// current run and every later one immediately).
	Stop *Stopper
}

// Enabled reports whether any governance mechanism is armed.
func (c Config) Enabled() bool {
	return c.StallHorizon > 0 || c.Audit || c.Stop != nil
}

// CheckEvery is the watchdog poll period on the sim clock: a quarter of
// StallHorizon, at least 1 ms.
func (c Config) CheckEvery() sim.Time {
	return max(c.StallHorizon/4, sim.Millisecond)
}

// Stopper is an external cancellation handle: Stop may be called from
// any goroutine (signal handlers, wall-clock timers); the supervised
// run observes it at the next event boundary and drains cleanly.
type Stopper struct {
	fired  atomic.Bool
	reason atomic.Pointer[string]
}

// NewStopper returns an unfired Stopper.
func NewStopper() *Stopper { return &Stopper{} }

// Stop requests cancellation. The first call wins; later calls are
// no-ops. Safe for concurrent use.
func (s *Stopper) Stop(reason string) {
	if s.fired.CompareAndSwap(false, true) {
		s.reason.Store(&reason)
	}
}

// Stopped reports whether Stop has been called.
func (s *Stopper) Stopped() bool { return s.fired.Load() }

// Reason returns the first Stop call's reason ("" if unfired).
func (s *Stopper) Reason() string {
	if r := s.reason.Load(); r != nil {
		return *r
	}
	return ""
}

// Violation is one broken invariant found by an audit.
type Violation struct {
	// Layer names the subsystem ("netsim", "nvmeof", "nvme", "ssd",
	// "cluster").
	Layer string `json:"layer"`
	// Name identifies the invariant, e.g. "txq-credit-conservation".
	Name string `json:"name"`
	// Detail is a human-readable account of the observed inconsistency.
	Detail string `json:"detail"`
}

// String renders "layer/name: detail".
func (v Violation) String() string {
	return fmt.Sprintf("%s/%s: %s", v.Layer, v.Name, v.Detail)
}

// Violationf builds a Violation with a formatted detail.
func Violationf(layer, name, format string, args ...any) Violation {
	return Violation{Layer: layer, Name: name, Detail: fmt.Sprintf(format, args...)}
}

// Auditable is implemented by components that can cheaply verify their
// internal conservation invariants. AuditInvariants must be read-only
// (it runs on the live sim clock and must not perturb determinism) and
// return nil when everything holds.
type Auditable interface {
	AuditInvariants() []Violation
}

// Tag appends context (e.g. "target 1") to every violation's detail,
// so per-instance reports stay attributable after aggregation.
func Tag(vs []Violation, context string) []Violation {
	for i := range vs {
		vs[i].Detail += " [" + context + "]"
	}
	return vs
}

// Audit runs every auditable (nil entries are skipped) and concatenates
// the violations.
func Audit(as ...Auditable) []Violation {
	var out []Violation
	for _, a := range as {
		if a == nil {
			continue
		}
		out = append(out, a.AuditInvariants()...)
	}
	return out
}

// ViolationError is the typed failure of the conservation auditor.
type ViolationError struct {
	// At is the simulated time of the failing audit.
	At sim.Time
	// Violations is non-empty.
	Violations []Violation
}

// Error implements error.
func (e *ViolationError) Error() string {
	msg := fmt.Sprintf("guard: %d invariant violation(s) at t=%v", len(e.Violations), e.At)
	for i, v := range e.Violations {
		if i == 4 {
			msg += fmt.Sprintf("; and %d more", len(e.Violations)-i)
			break
		}
		msg += "; " + v.String()
	}
	return msg
}

// StallError is the typed failure of the liveness watchdog.
type StallError struct {
	// Axis is "sim-time" (in-flight command exceeded the horizon with
	// no progress) or "event-storm" (events processing, clock frozen).
	Axis string
	// Horizon is the configured StallHorizon.
	Horizon sim.Time
	// Dump is the diagnostic state snapshot taken at the trip.
	Dump *Dump
}

// Error implements error.
func (e *StallError) Error() string {
	d := e.Dump
	if d == nil {
		return fmt.Sprintf("guard: %s stall (horizon %v)", e.Axis, e.Horizon)
	}
	return fmt.Sprintf("guard: %s stall at t=%v (horizon %v): %d in-flight, oldest age %v",
		e.Axis, d.SimTime, e.Horizon, d.InFlightTotal, d.OldestAge)
}
