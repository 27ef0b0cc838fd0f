package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"srcsim/internal/cluster"
	"srcsim/internal/faults"
	"srcsim/internal/guard"
	"srcsim/internal/obs"
	"srcsim/internal/obs/timeseries"
	"srcsim/internal/sim"
)

// TestCtrlFailoverArc runs the controller-crash experiment and checks
// the full epoch arc: boot, crash, lease expiries at the agents,
// standby takeover under a bumped epoch, reconvergence, and the fenced
// primary restart. The conservation auditor is armed by CongestionSpec,
// so the channel-accounting and epoch-guard invariants are asserted
// live throughout.
func TestCtrlFailoverArc(t *testing.T) {
	tpmCong, _ := testTPMs(t)
	res, err := CtrlFailover(tpmCong, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FailedOver {
		t.Fatal("standby never took over")
	}
	if !res.Fenced {
		t.Fatal("restarted primary was not fenced")
	}
	if res.ReconvergeMs <= 0 {
		t.Fatalf("no reconvergence after failover (%.2f ms)", res.ReconvergeMs)
	}
	if res.RetainedPct <= 0 {
		t.Fatalf("retained %.1f%% of oracle", res.RetainedPct)
	}
	s := res.Run.Summary
	if s.Completed+s.Failed != s.Submitted {
		t.Fatalf("accounting: %d + %d != %d", s.Completed, s.Failed, s.Submitted)
	}
	led := s.Ctrl
	if led == nil {
		t.Fatal("no control-plane ledger")
	}
	if led.Epoch < 2 {
		t.Fatalf("epoch %d after failover, want >= 2", led.Epoch)
	}
	if led.Sent != led.Delivered+led.Dropped+led.InFlight {
		t.Fatalf("channel conservation: sent %d != delivered %d + dropped %d + in-flight %d",
			led.Sent, led.Delivered, led.Dropped, led.InFlight)
	}
	if led.LeaseExpiries == 0 {
		t.Fatal("crash never expired a lease")
	}
	// Epoch ledger entries must be monotone in epoch and time.
	for i := 1; i < len(res.Epochs); i++ {
		if res.Epochs[i].Epoch < res.Epochs[i-1].Epoch {
			t.Fatalf("epoch ledger not monotone: %+v", res.Epochs)
		}
		if res.Epochs[i].AtMs < res.Epochs[i-1].AtMs {
			t.Fatalf("epoch ledger time-disordered: %+v", res.Epochs)
		}
	}
	var buf bytes.Buffer
	FprintCtrlFailover(&buf, res)
	for _, want := range []string{"failed over: true", "fenced: true", "epoch ledger"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, buf.String())
		}
	}
}

// TestCtrlDegradationMonotone sweeps the loss x delay corners at paper
// scale and checks that a pristine channel retains strictly more
// throughput than the dead corner: sustained heartbeat loss expires
// leases and pins agents at the conservative fallback read cut, so the
// lossy corner must pay in aggregate throughput.
func TestCtrlDegradationMonotone(t *testing.T) {
	tpmCong, _ := testTPMs(t)
	res, err := CtrlDegradation(tpmCong, 1200, 7, []float64{0, 0.99}, []float64{1, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("%d cells, want 4", len(res.Cells))
	}
	var best, worst *CtrlCell
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.Loss == 0 && c.DelayX == 1 {
			best = c
		}
		if c.Loss == 0.99 && c.DelayX == 32 {
			worst = c
		}
		s := c.Run.Summary
		if s.Completed+s.Failed != s.Submitted {
			t.Fatalf("loss=%g delay=%gx accounting: %d + %d != %d",
				c.Loss, c.DelayX, s.Completed, s.Failed, s.Submitted)
		}
		if led := s.Ctrl; led == nil {
			t.Fatalf("loss=%g delay=%gx: no ledger", c.Loss, c.DelayX)
		} else if led.Sent != led.Delivered+led.Dropped+led.InFlight {
			t.Fatalf("loss=%g delay=%gx channel conservation violated", c.Loss, c.DelayX)
		}
	}
	if best == nil || worst == nil {
		t.Fatal("corner cells missing")
	}
	if worst.Run.Summary.Ctrl.Dropped == 0 {
		t.Fatal("lossy corner dropped nothing")
	}
	if worst.Run.Summary.Ctrl.Fallbacks == 0 {
		t.Fatal("dead channel never pinned the fallback weight")
	}
	if best.RetainedPct < worst.RetainedPct {
		t.Fatalf("degradation not monotone: pristine %.1f%% < lossy %.1f%%",
			best.RetainedPct, worst.RetainedPct)
	}
	// The dead corner must pay real throughput, not round to the oracle.
	if best.RetainedPct < 97 {
		t.Fatalf("pristine channel retained only %.1f%%", best.RetainedPct)
	}
	if worst.RetainedPct > 97 {
		t.Fatalf("dead channel retained %.1f%%, expected a visible loss", worst.RetainedPct)
	}
}

// ctrlFaultSpec builds a small in-band DCQCN-SRC run with one
// control-plane fault installed and the auditor armed.
func ctrlFaultRun(t *testing.T, ev faults.Event) *cluster.Result {
	t.Helper()
	tpmCong, _ := testTPMs(t)
	tr, err := VDITrace(7, 150)
	if err != nil {
		t.Fatal(err)
	}
	d := tr.Duration()
	spec := ctrlSpec(d)
	spec.TPM = tpmCong
	spec.Guard = guard.Config{Audit: true}
	if ev.At == 0 {
		ev.At = d / 4
	}
	if ev.Kind == faults.CtrlPartition && ev.Duration == 0 {
		ev.Duration = d / 4
	}
	spec.Faults = &faults.Schedule{Seed: 0xC7F0, Events: []faults.Event{ev}}
	c, err := cluster.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCtrlFaultKindsAccounting drives each new control-plane fault kind
// through a full run with the auditor armed: the workload accounting
// invariant (Completed + Failed == Submitted) and the channel/epoch
// invariants must hold under every kind.
func TestCtrlFaultKindsAccounting(t *testing.T) {
	cases := []struct {
		name string
		ev   faults.Event
	}{
		{"ctrl-drop", faults.Event{Kind: faults.CtrlDrop, Where: "target:0", Probability: 0.8}},
		{"ctrl-delay", faults.Event{Kind: faults.CtrlDelay, Where: "target:1", Factor: 40}},
		{"ctrl-partition", faults.Event{Kind: faults.CtrlPartition, Where: "target:0"}},
		{"controller-crash", faults.Event{Kind: faults.ControllerCrash, Where: "controller:0"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res := ctrlFaultRun(t, tc.ev)
			if res.Completed+res.Failed != res.Submitted {
				t.Fatalf("accounting: %d + %d != %d", res.Completed, res.Failed, res.Submitted)
			}
			if res.FaultsInjected == 0 {
				t.Fatal("fault never fired")
			}
			led := res.Ctrl
			if led == nil {
				t.Fatal("no control-plane ledger")
			}
			if led.Sent != led.Delivered+led.Dropped+led.InFlight {
				t.Fatalf("channel conservation: sent %d != delivered %d + dropped %d + in-flight %d",
					led.Sent, led.Delivered, led.Dropped, led.InFlight)
			}
		})
	}
}

// TestCtrlOffKeepsDirectWiring: the zero Ctrl config is the ideal
// channel — direct calls with nothing of the in-band plane visible: no
// ctrl ledger in the summary JSON (its historical shape), no ctrlplane
// series in the registry and no ctrl recorder track, while the
// controllers' own series are still sampled.
func TestCtrlOffKeepsDirectWiring(t *testing.T) {
	tpmCong, _ := testTPMs(t)
	tr, err := VDITrace(7, 100)
	if err != nil {
		t.Fatal(err)
	}
	spec := CongestionSpec()
	spec.Mode = cluster.DCQCNSRC
	spec.TPM = tpmCong
	spec.Metrics = obs.NewRegistry()
	spec.Recorder = timeseries.New(sim.Millisecond, 0)
	c, err := cluster.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ctrl != nil {
		t.Fatal("control-plane ledger present with Ctrl disabled")
	}
	b, err := json.Marshal(res.Summary)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte(`"ctrl"`)) {
		t.Fatal("summary JSON contains ctrl field with plane disabled")
	}
	snap := spec.Metrics.Snapshot()
	for _, keys := range []map[string]float64{snap.Counters, snap.Gauges} {
		for k := range keys {
			if strings.Contains(k, "ctrlplane") {
				t.Fatalf("registry has control-plane series %q on the ideal channel", k)
			}
		}
	}
	var weightSeries int
	for _, s := range spec.Recorder.Dump(0) {
		if strings.HasSuffix(s.Track, "/ctrl") || strings.HasPrefix(s.Name, "ctrl_") {
			t.Fatalf("recorder has control-plane series %s %s on the ideal channel", s.Track, s.Name)
		}
		if s.Name == "src_weight_ratio" {
			weightSeries++
		}
	}
	if weightSeries != spec.Targets {
		t.Fatalf("%d controller weight series recorded, want one per target (%d)", weightSeries, spec.Targets)
	}
}

// TestPlaneRecorderFollowsIncarnations: a controller crash with a warm
// standby rebuilds every target's controller, so a target's weight
// events span several incarnations. The flight recorder's per-target
// src_adjustments counter must follow all of them: its summed deltas
// equal the target's adjust/degraded trace instants (which every
// incarnation emits), and across targets the merged Result.WeightEvents.
func TestPlaneRecorderFollowsIncarnations(t *testing.T) {
	tpmCong, _ := testTPMs(t)
	tr, err := VDITrace(7, 300)
	if err != nil {
		t.Fatal(err)
	}
	d := tr.Duration()
	spec := ctrlSpec(d)
	spec.TPM = tpmCong
	spec.Ctrl.Standby = true
	spec.Faults = &faults.Schedule{Events: []faults.Event{
		{At: d / 4, Kind: faults.ControllerCrash, Where: "controller:0", Duration: d / 4},
	}}
	spec.Recorder = timeseries.New(0, 0)
	spec.Trace = obs.NewTracer(0)
	c, err := cluster.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ctrl == nil || res.Ctrl.Failovers == 0 {
		t.Fatal("the crash never failed over to fresh controller incarnations")
	}
	if spec.Trace.Dropped() != 0 {
		t.Fatal("trace ring overflowed; the instant count would be short")
	}

	recorded := make([]float64, spec.Targets)
	for _, s := range spec.Recorder.Dump(0) {
		var i int
		if s.Name != "src_adjustments" {
			continue
		}
		if _, err := fmt.Sscanf(s.Track, "DCQCN-SRC/t%d", &i); err != nil || s.Dropped != 0 {
			t.Fatalf("unexpected src_adjustments series %+v", s)
		}
		for _, v := range s.V {
			if v < 0 {
				t.Fatalf("target %d src_adjustments rewound by %g", i, v)
			}
			recorded[i] += v
		}
	}
	traced := make([]float64, spec.Targets)
	for _, ev := range spec.Trace.Events() {
		var i int
		for _, prefix := range []string{"adjust ", "degraded "} {
			if rest, ok := strings.CutPrefix(ev.Name, prefix); ok && ev.Phase == obs.PhaseInstant {
				if _, err := fmt.Sscanf(rest, "t%d", &i); err != nil {
					t.Fatalf("unexpected trace instant %q", ev.Name)
				}
				traced[i]++
			}
		}
	}
	var total float64
	for i := range recorded {
		if recorded[i] != traced[i] {
			t.Errorf("target %d: recorder counted %g adjustments, its controllers made %g", i, recorded[i], traced[i])
		}
		total += recorded[i]
	}
	if total != float64(len(res.WeightEvents)) || total == 0 {
		t.Errorf("recorder counted %g adjustments, Result.WeightEvents has %d", total, len(res.WeightEvents))
	}
}

// TestOracleIgnoresFaultingMods: the undisturbed oracle legs of
// adapt-aging and ctrl-failover must not pick up a caller's faults (as
// srcsim -faults passes them): each oracle digest with a faulting mod
// equals its digest without one. A ctrl-* fault would even fail the
// oracle's installation, which has no in-band channel.
func TestOracleIgnoresFaultingMods(t *testing.T) {
	tpmCong, _ := testTPMs(t)
	faulting := func(ev faults.Event) func(*cluster.Spec) {
		return func(s *cluster.Spec) {
			s.Faults = &faults.Schedule{Events: []faults.Event{ev}}
			s.Retry = HangRetryPolicy()
		}
	}
	oracleJSON := func(d cluster.Digest) string {
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	slow := faulting(faults.Event{At: sim.Millisecond, Kind: faults.SSDSlow, Where: "target:0",
		Duration: 2 * sim.Millisecond, Factor: 6})
	plainA, err := AdaptAging(tpmCong, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	faultedA, err := AdaptAging(tpmCong, 200, 7, slow)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := oracleJSON(plainA.Oracle), oracleJSON(faultedA.Oracle); a != b {
		t.Errorf("adapt-aging oracle re-faulted by a mod:\nplain:   %s\nfaulted: %s", a, b)
	}

	drop := faulting(faults.Event{At: sim.Millisecond, Kind: faults.CtrlDrop, Where: "target:0",
		Duration: 2 * sim.Millisecond, Probability: 0.5})
	plainC, err := CtrlFailover(tpmCong, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	faultedC, err := CtrlFailover(tpmCong, 200, 7, drop)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := oracleJSON(plainC.Oracle), oracleJSON(faultedC.Oracle); a != b {
		t.Errorf("ctrl-failover oracle re-faulted by a mod:\nplain:   %s\nfaulted: %s", a, b)
	}
}
