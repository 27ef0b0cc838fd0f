package ctrlplane

import (
	"srcsim/internal/guard"
	"srcsim/internal/obs"
	"srcsim/internal/obs/timeseries"
	"srcsim/internal/sim"
)

// EpochStep is one entry of the epoch ledger: boot, crash, failover,
// restart, restart-fenced, and reconverged (the first directive of a
// new epoch applied at an agent — the moment the new controller is
// demonstrably steering again).
type EpochStep struct {
	AtMs   float64 `json:"at_ms"`
	Epoch  uint64  `json:"epoch"`
	Reason string  `json:"reason"`
}

// Ledger is the control plane's message and liveness accounting. The
// channel-conservation invariant is Sent == Delivered + Dropped +
// InFlight; the directive invariant is DirectivesDelivered ==
// DirectivesApplied + StaleRejected + DupsAcked.
type Ledger struct {
	Epoch     uint64 `json:"epoch"`
	Sent      uint64 `json:"sent"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped,omitempty"`
	InFlight  uint64 `json:"in_flight,omitempty"`

	TelemetryBatches          uint64 `json:"telemetry_batches,omitempty"`
	TelemetryDropped          uint64 `json:"telemetry_dropped,omitempty"`
	TelemetryReorderedDropped uint64 `json:"telemetry_reordered_dropped,omitempty"`
	RateEvents                uint64 `json:"rate_events,omitempty"`

	DirectivesSent      uint64 `json:"directives_sent,omitempty"`
	DirectivesDelivered uint64 `json:"directives_delivered,omitempty"`
	DirectivesApplied   uint64 `json:"directives_applied,omitempty"`
	DirectiveRetries    uint64 `json:"directive_retries,omitempty"`
	DirectivesAbandoned uint64 `json:"directives_abandoned,omitempty"`
	StaleRejected       uint64 `json:"stale_rejected,omitempty"`
	StaleHeartbeats     uint64 `json:"stale_heartbeats,omitempty"`
	DupsAcked           uint64 `json:"dups_acked,omitempty"`

	LeaseExpiries   uint64 `json:"lease_expiries,omitempty"`
	Fallbacks       uint64 `json:"fallbacks,omitempty"`
	LeaseRecoveries uint64 `json:"lease_recoveries,omitempty"`
	Crashes         uint64 `json:"crashes,omitempty"`
	Failovers       uint64 `json:"failovers,omitempty"`

	Epochs []EpochStep `json:"epochs,omitempty"`
}

// epochStep appends one epoch-ledger entry at sim time now.
func (p *Plane) epochStep(now sim.Time, reason string) {
	p.led.Epochs = append(p.led.Epochs, EpochStep{
		AtMs: now.Millis(), Epoch: p.epoch, Reason: reason,
	})
}

// noteApplied records reconvergence: the first directive of an epoch
// later than any previously applied marks the moment the (new)
// controller demonstrably steers the data plane again. The initial
// epoch's first directive is ordinary startup, not a reconvergence.
func (p *Plane) noteApplied(now sim.Time, epoch uint64) {
	if epoch <= p.appliedEpochMax {
		return
	}
	first := p.appliedEpochMax == 0
	p.appliedEpochMax = epoch
	if !first || epoch > 1 {
		p.epochStep(now, "reconverged")
	}
}

// LedgerSnapshot returns the ledger with the instantaneous channel
// occupancy and epoch filled in; nil on the ideal channel, which keeps
// none.
func (p *Plane) LedgerSnapshot() *Ledger {
	if !p.Cfg.Enabled {
		return nil
	}
	led := p.led
	led.Epoch = p.epoch
	led.InFlight = p.chInFlight
	return &led
}

// AuditInvariants implements guard.Auditable: channel conservation, the
// directive disposition ledger, and the epoch guard (no agent ever runs
// ahead of the plane's epoch; epoch-ledger entries are monotone).
// Read-only, called on the live audit ticker and at drain.
func (p *Plane) AuditInvariants() []guard.Violation {
	var vs []guard.Violation
	if p.led.Sent != p.led.Delivered+p.led.Dropped+p.chInFlight {
		vs = append(vs, guard.Violationf("ctrlplane", "channel-conservation",
			"sent %d != delivered %d + dropped %d + in-flight %d",
			p.led.Sent, p.led.Delivered, p.led.Dropped, p.chInFlight))
	}
	if p.led.DirectivesDelivered != p.led.DirectivesApplied+p.led.StaleRejected+p.led.DupsAcked {
		vs = append(vs, guard.Violationf("ctrlplane", "directive-disposition",
			"delivered %d != applied %d + stale %d + dups %d",
			p.led.DirectivesDelivered, p.led.DirectivesApplied, p.led.StaleRejected, p.led.DupsAcked))
	}
	for t, a := range p.agents {
		if a != nil && a.epoch > p.epoch {
			vs = append(vs, guard.Violationf("ctrlplane", "epoch-guard",
				"agent %d epoch %d ahead of plane epoch %d", t, a.epoch, p.epoch))
		}
	}
	if p.pendingDirs < 0 {
		vs = append(vs, guard.Violationf("ctrlplane", "pending-directives",
			"pending directive count %d negative", p.pendingDirs))
	}
	return vs
}

// planeObs holds live metric handles; nil when observability is off.
type planeObs struct {
	sent          *obs.Counter
	delivered     *obs.Counter
	dropped       *obs.Counter
	applied       *obs.Counter
	retries       *obs.Counter
	staleRejected *obs.Counter
	leaseExpiries *obs.Counter
	fallbacks     *obs.Counter
	failovers     *obs.Counter
	epoch         *obs.Gauge
}

// Instrument attaches live metric counters (a nil registry or the
// ideal channel keeps every hook a no-op).
func (p *Plane) Instrument(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil || !p.Cfg.Enabled {
		return
	}
	p.o = &planeObs{
		sent:          reg.Counter("ctrlplane", "msgs_sent", labels...),
		delivered:     reg.Counter("ctrlplane", "msgs_delivered", labels...),
		dropped:       reg.Counter("ctrlplane", "msgs_dropped", labels...),
		applied:       reg.Counter("ctrlplane", "directives_applied", labels...),
		retries:       reg.Counter("ctrlplane", "directive_retries", labels...),
		staleRejected: reg.Counter("ctrlplane", "stale_rejected", labels...),
		leaseExpiries: reg.Counter("ctrlplane", "lease_expiries", labels...),
		fallbacks:     reg.Counter("ctrlplane", "fallbacks", labels...),
		failovers:     reg.Counter("ctrlplane", "failovers", labels...),
		epoch:         reg.Gauge("ctrlplane", "epoch", labels...),
	}
	p.o.epoch.Set(float64(p.epoch))
}

// SampleSeries is the plane's flight-recorder probe: channel occupancy,
// unacknowledged directives, the epoch, the loss/retry counters, and
// each agent's lease age and state — control-plane lag rendered against
// the same timeline as queue growth. Read-only; the ideal channel emits
// nothing.
func (p *Plane) SampleSeries(now sim.Time, track string, emit timeseries.Emit) {
	if !p.Cfg.Enabled {
		return
	}
	emit(track, "ctrl_epoch", timeseries.Gauge, float64(p.epoch))
	emit(track, "ctrl_inflight_msgs", timeseries.Gauge, float64(p.chInFlight))
	emit(track, "ctrl_pending_directives", timeseries.Gauge, float64(p.pendingDirs))
	emit(track, "ctrl_msgs_sent", timeseries.Counter, float64(p.led.Sent))
	emit(track, "ctrl_msgs_dropped", timeseries.Counter, float64(p.led.Dropped))
	emit(track, "ctrl_directive_retries", timeseries.Counter, float64(p.led.DirectiveRetries))
	emit(track, "ctrl_directives_applied", timeseries.Counter, float64(p.led.DirectivesApplied))
	emit(track, "ctrl_stale_rejected", timeseries.Counter, float64(p.led.StaleRejected))
	up := 0.0
	if p.controllerUp() {
		up = 1
	}
	emit(track, "ctrl_controller_up", timeseries.Gauge, up)
	for t, a := range p.agents {
		if a == nil {
			continue
		}
		emit(track, p.ageNames[t], timeseries.Gauge, float64(a.leaseAge(now))/1e3)
		emit(track, p.stateNames[t], timeseries.Gauge, float64(a.state))
	}
}
