package core

import (
	"math"

	"srcsim/internal/nvme"
	"srcsim/internal/obs"
	"srcsim/internal/obs/timeseries"
	"srcsim/internal/sim"
)

// predictionWindow is the paper's prediction window δ: the monitor
// profiles the requests of the last δ. A demanded-rate change smaller
// than rateEpsilon of the previous demand is negligible and gets no
// reaction.
const (
	predictionWindow = 10 * sim.Millisecond
	rateEpsilon      = 0.05
)

// ControllerConfig tunes the SRC dynamic adjustment (Alg. 1).
type ControllerConfig struct {
	// Tau is the convergence threshold on relative read-throughput
	// change between successive weight ratios (default 0.10).
	Tau float64
	// MaxW bounds the weight-ratio search (default 32).
	MaxW int
	// MinEventGap rate-limits adjustments: congestion notifications
	// arriving closer than this reuse the previous decision (default
	// 1 ms; DCQCN emits rate changes far faster than the SSD's
	// throughput moves, so reacting to each one just thrashes weights).
	MinEventGap sim.Time
	// Scale multiplies TPM predictions before comparison with the
	// demanded rate; set it to the number of identical SSD instances
	// when the target runs a flash array and the TPM was trained on a
	// single device (default 1).
	Scale float64
	// StaleAfter, when positive, arms the stale-telemetry watchdog: if a
	// congestion event arrives and the monitor has seen no command for
	// longer than StaleAfter, the controller stops trusting the TPM (its
	// feature window describes traffic that no longer exists) and falls
	// back to the conservative static FallbackWeight until telemetry
	// resumes. Zero (the default) disables degradation and preserves
	// pre-fault behaviour exactly.
	StaleAfter sim.Time
	// FallbackWeight is the static read:write weight ratio applied while
	// degraded (default 1 — the fair round-robin baseline).
	FallbackWeight int
	// Adaptive arms online adaptation (in-run TPM retraining plus the
	// Predictive→Retraining→ModelFree→Static degradation ladder; see
	// adaptive.go). The zero value keeps the controller byte-identical
	// to its pre-adaptive behaviour.
	Adaptive AdaptiveConfig
}

// withDefaults fills unset fields.
func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.Tau <= 0 {
		c.Tau = 0.10
	}
	if c.MaxW <= 0 {
		c.MaxW = 32
	}
	if c.MinEventGap <= 0 {
		c.MinEventGap = sim.Millisecond
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.FallbackWeight <= 0 {
		c.FallbackWeight = 1
	}
	if c.Adaptive.Enabled {
		c.Adaptive = c.Adaptive.withDefaults()
	}
	return c
}

// AdjustEvent records one applied weight adjustment for analysis
// (Fig. 9's vertical dashed lines).
type AdjustEvent struct {
	At           sim.Time
	DemandedBps  float64
	WeightRatio  int
	PredictedRBp float64 // predicted read throughput at the chosen w
	// Degraded marks a fallback decision: the stale-telemetry watchdog
	// applied the static FallbackWeight instead of a TPM prediction.
	Degraded bool
}

// WeightSink is where the controller applies its decisions: a single
// SSQ, or an SSQGroup spanning a target's flash array.
type WeightSink interface {
	SetWeights(read, write int)
	WeightRatio() float64
}

// SSQGroup fans weight updates out to every SSQ of a flash array.
type SSQGroup []*nvme.SSQ

// SetWeights implements WeightSink.
func (g SSQGroup) SetWeights(read, write int) {
	for _, s := range g {
		s.SetWeights(read, write)
	}
}

// WeightRatio implements WeightSink (all members share one ratio).
func (g SSQGroup) WeightRatio() float64 {
	if len(g) == 0 {
		return 1
	}
	return g[0].WeightRatio()
}

// Controller is the SRC decision loop: it owns the monitor, consults the
// TPM, and adjusts the SSQ weights on congestion events.
type Controller struct {
	Cfg     ControllerConfig
	TPM     *TPM
	Monitor *Monitor
	SSQ     WeightSink

	// Events logs every applied adjustment.
	Events []AdjustEvent

	lastEventAt sim.Time
	lastDemand  float64
	haveEvent   bool
	degraded    bool

	// adaptive holds the degradation ladder and in-run retraining state;
	// nil unless Cfg.Adaptive.Enabled (see adaptive.go).
	adaptive *adaptiveState

	// prior holds the recorder counters of the incarnations this
	// controller replaced (see Succeed).
	prior struct{ adjustments, retrains, promotions float64 }

	obs *ctlObs
}

// Succeed makes c the replacement incarnation of prev (a control-plane
// failover or restart rebuilds a target's controller): c's
// flight-recorder counters continue from prev's totals, so
// src_adjustments, src_retrains and src_promotions never rewind. The
// event ledgers themselves stay per incarnation.
func (c *Controller) Succeed(prev *Controller) {
	c.prior = prev.prior
	c.prior.adjustments += float64(len(prev.Events))
	if a := prev.adaptive; a != nil {
		c.prior.retrains += float64(a.retrains)
		c.prior.promotions += float64(a.promotions)
	}
}

// ctlObs holds observability handles resolved by Instrument; nil when
// observability is off.
type ctlObs struct {
	sc             *obs.Scope
	name           string
	rateEvents     *obs.Counter
	suppressed     *obs.Counter
	adjustments    *obs.Counter
	predictions    *obs.Counter
	weightRatio    *obs.Gauge
	degradedEnters *obs.Counter
	recoveries     *obs.Counter
	degraded       *obs.Gauge

	// Adaptive-only handles (nil unless the ladder is armed — keeping
	// non-adaptive metric snapshots byte-identical to earlier builds).
	ladderMoves *obs.Counter
	ladderState *obs.Gauge
	retrains    *obs.Counter
	promotions  *obs.Counter
	rejections  *obs.Counter
}

// Instrument attaches a metrics registry and/or trace scope to the
// controller (either may be nil). name distinguishes controllers when a
// cluster runs several targets; it prefixes trace track names.
func (c *Controller) Instrument(reg *obs.Registry, sc *obs.Scope, name string, labels ...obs.Label) {
	if reg == nil && !sc.Enabled() {
		return
	}
	c.obs = &ctlObs{
		sc:             sc,
		name:           name,
		rateEvents:     reg.Counter("core", "rate_events", labels...),
		suppressed:     reg.Counter("core", "rate_events_suppressed", labels...),
		adjustments:    reg.Counter("core", "adjustments", labels...),
		predictions:    reg.Counter("core", "tpm_predictions", labels...),
		weightRatio:    reg.Gauge("core", "weight_ratio_last", labels...),
		degradedEnters: reg.Counter("core", "degraded_entries", labels...),
		recoveries:     reg.Counter("core", "recoveries", labels...),
		degraded:       reg.Gauge("core", "degraded", labels...),
	}
	if c.adaptive != nil {
		c.obs.ladderMoves = reg.Counter("core", "ladder_transitions", labels...)
		c.obs.ladderState = reg.Gauge("core", "ladder_state", labels...)
		c.obs.retrains = reg.Counter("core", "retrains", labels...)
		c.obs.promotions = reg.Counter("core", "retrain_promotions", labels...)
		c.obs.rejections = reg.Counter("core", "retrain_rejections", labels...)
	}
}

// NewController wires a controller around a trained TPM and a target's
// SSQ (or SSQGroup for arrays).
func NewController(cfg ControllerConfig, tpm *TPM, ssq WeightSink) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{
		Cfg:     cfg,
		TPM:     tpm,
		Monitor: NewMonitor(predictionWindow),
		SSQ:     ssq,
	}
	if cfg.Adaptive.Enabled {
		c.adaptive = newAdaptiveState(cfg.Adaptive)
	}
	return c
}

// PredictWeightRatio implements the paper's Alg. 1 "PredictWeightRatio":
// search w ≥ 1 for the predicted read throughput closest to the demanded
// data sending rate r (bits/s), stopping when predictions converge
// (relative change < Tau) or MaxW is reached.
func (c *Controller) PredictWeightRatio(rBps float64, ch []float64) int {
	w := 1
	best := 1
	tputR, _ := c.predict(ch, float64(w))
	tputR *= c.Cfg.Scale
	if tputR < rBps {
		return 1
	}
	minDis := math.Abs(tputR - rBps)
	preTput := tputR
	for {
		w++
		if w > c.Cfg.MaxW {
			break
		}
		tputR, _ = c.predict(ch, float64(w))
		tputR *= c.Cfg.Scale
		if dis := math.Abs(tputR - rBps); dis < minDis {
			minDis = dis
			best = w
		}
		curTput := tputR
		if preTput > 0 && math.Abs(preTput-curTput)/preTput < c.Cfg.Tau {
			break
		}
		preTput = curTput
	}
	return best
}

// predict wraps TPM.Predict with the prediction counter.
func (c *Controller) predict(ch []float64, w float64) (tputR, tputW float64) {
	if c.obs != nil {
		c.obs.predictions.Inc()
	}
	return c.TPM.Predict(ch, w)
}

// OnRateEvent is the "DynamicAdjustment" entry point: DCQCN notifies a
// new demanded data sending rate (bits/s) at time at — a pause event when
// lower than before, a retrieval event when higher. The controller
// profiles the preceding window, picks w, and applies it to the SSQ.
func (c *Controller) OnRateEvent(at sim.Time, demandedBps float64) {
	if c.obs != nil {
		c.obs.rateEvents.Inc()
	}
	if c.haveEvent {
		if at-c.lastEventAt < c.Cfg.MinEventGap {
			if c.obs != nil {
				c.obs.suppressed.Inc()
			}
			return
		}
		if c.lastDemand > 0 && math.Abs(demandedBps-c.lastDemand)/c.lastDemand < rateEpsilon {
			if c.obs != nil {
				c.obs.suppressed.Inc()
			}
			return
		}
	}
	c.lastEventAt = at
	c.lastDemand = demandedBps
	c.haveEvent = true

	if c.adaptive != nil {
		c.adaptiveRateEvent(at, demandedBps)
		return
	}

	if c.Cfg.StaleAfter > 0 {
		if last, ok := c.Monitor.LastRecordAt(); !ok || at-last > c.Cfg.StaleAfter {
			// Telemetry stalled: the monitor window describes traffic
			// that no longer exists, so a TPM prediction would steer on
			// stale features. Fall back to the conservative static
			// weight until commands flow again.
			c.degrade(at, demandedBps)
			return
		}
		if c.degraded {
			c.recoverTelemetry(at)
		}
	}

	c.tpmAdjust(at, demandedBps)
}

// tpmAdjust is the TPM-driven adjustment body (Alg. 1): profile the
// preceding window, pick w, apply it. Shared by the legacy path and the
// adaptive ladder's Predictive/Retraining rungs.
func (c *Controller) tpmAdjust(at sim.Time, demandedBps float64) {
	ch := c.Monitor.Snapshot(at)
	w := c.PredictWeightRatio(demandedBps, ch)
	pr, _ := c.predict(ch, float64(w))
	pr *= c.Cfg.Scale
	c.SSQ.SetWeights(1, w)
	c.Events = append(c.Events, AdjustEvent{
		At: at, DemandedBps: demandedBps, WeightRatio: w, PredictedRBp: pr,
	})
	if o := c.obs; o != nil {
		o.adjustments.Inc()
		o.weightRatio.Set(float64(w))
		o.sc.Instant(at, "core", "adjust "+o.name,
			obs.Num("w", float64(w)),
			obs.Num("demanded_gbps", demandedBps/1e9),
			obs.Num("predicted_read_gbps", pr/1e9))
		o.sc.Counter(at, "core", "weight_ratio "+o.name, float64(w))
	}
}

// degrade enters (or stays in) the stale-telemetry fallback: apply the
// static FallbackWeight and log the transition.
func (c *Controller) degrade(at sim.Time, demandedBps float64) {
	if c.degraded {
		return
	}
	c.degraded = true
	w := c.Cfg.FallbackWeight
	c.SSQ.SetWeights(1, w)
	c.Events = append(c.Events, AdjustEvent{
		At: at, DemandedBps: demandedBps, WeightRatio: w, Degraded: true,
	})
	if o := c.obs; o != nil {
		o.degradedEnters.Inc()
		o.degraded.Set(1)
		o.weightRatio.Set(float64(w))
		o.sc.Instant(at, "core", "degraded "+o.name,
			obs.Num("w", float64(w)),
			obs.Num("demanded_gbps", demandedBps/1e9))
	}
}

// recoverTelemetry leaves the fallback once monitor data is fresh again;
// the caller proceeds to a normal TPM-driven adjustment.
func (c *Controller) recoverTelemetry(at sim.Time) {
	c.degraded = false
	if o := c.obs; o != nil {
		o.recoveries.Inc()
		o.degraded.Set(0)
		o.sc.Instant(at, "core", "recovered "+o.name)
	}
}

// Degraded reports whether the stale-telemetry fallback is active.
func (c *Controller) Degraded() bool { return c.degraded }

// SampleSeries is the controller's flight-recorder probe: the active
// SSQ weight ratio, the degraded flag, the cumulative adjustment count,
// and the last demanded data sending rate. Read-only.
func (c *Controller) SampleSeries(track string, emit timeseries.Emit) {
	emit(track, "src_weight_ratio", timeseries.Gauge, c.SSQ.WeightRatio())
	degraded := 0.0
	if c.degraded {
		degraded = 1
	}
	emit(track, "src_degraded", timeseries.Gauge, degraded)
	emit(track, "src_adjustments", timeseries.Counter, c.prior.adjustments+float64(len(c.Events)))
	emit(track, "src_demand_gbps", timeseries.Gauge, c.lastDemand/1e9)
	if a := c.adaptive; a != nil {
		// Adaptive-only series: emitted only when the ladder is armed so
		// recorder output on non-adaptive runs is unchanged.
		emit(track, "src_ladder_state", timeseries.Gauge, float64(a.state))
		emit(track, "src_retrains", timeseries.Counter, c.prior.retrains+float64(a.retrains))
		emit(track, "src_promotions", timeseries.Counter, c.prior.promotions+float64(a.promotions))
		emit(track, "src_window_samples", timeseries.Gauge, float64(a.window.Len()))
		emit(track, "src_pred_err_mean", timeseries.Gauge, a.errs.AggErr())
	}
}

// CurrentWeightRatio returns the SSQ's active w.
func (c *Controller) CurrentWeightRatio() float64 { return c.SSQ.WeightRatio() }
