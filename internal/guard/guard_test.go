package guard

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"srcsim/internal/sim"
)

func TestZeroConfigDisabled(t *testing.T) {
	var cfg Config
	if cfg.Enabled() {
		t.Fatal("zero Config reports enabled")
	}
}

func TestCheckEvery(t *testing.T) {
	if got := (Config{StallHorizon: 100 * sim.Millisecond}).CheckEvery(); got != 25*sim.Millisecond {
		t.Fatalf("CheckEvery = %v, want StallHorizon/4", got)
	}
	// A tiny horizon still polls at >= 1 ms.
	if got := (Config{StallHorizon: sim.Microsecond}).CheckEvery(); got != sim.Millisecond {
		t.Fatalf("CheckEvery floor = %v, want 1ms", got)
	}
}

func TestEnabledAxes(t *testing.T) {
	for _, c := range []Config{
		{StallHorizon: 1},
		{Audit: true},
		{Stop: NewStopper()},
	} {
		if !c.Enabled() {
			t.Fatalf("config %+v should be enabled", c)
		}
	}
}

func TestStopperFirstReasonWins(t *testing.T) {
	s := NewStopper()
	if s.Stopped() || s.Reason() != "" {
		t.Fatal("fresh stopper already fired")
	}
	s.Stop("first")
	s.Stop("second")
	if !s.Stopped() || s.Reason() != "first" {
		t.Fatalf("Reason() = %q, want first call to win", s.Reason())
	}
}

func TestStopperConcurrent(t *testing.T) {
	s := NewStopper()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Stop("concurrent")
		}()
	}
	wg.Wait()
	if !s.Stopped() || s.Reason() != "concurrent" {
		t.Fatalf("stopper state after concurrent fires: %q", s.Reason())
	}
}

func TestViolationFormatting(t *testing.T) {
	v := Violationf("nvmeof", "txq-credit-conservation", "credit %d != cap %d", 3, 4)
	if v.String() != "nvmeof/txq-credit-conservation: credit 3 != cap 4" {
		t.Fatalf("String() = %q", v.String())
	}
	tagged := Tag([]Violation{v}, "target 1")
	if !strings.HasSuffix(tagged[0].Detail, " [target 1]") {
		t.Fatalf("Tag missing context: %q", tagged[0].Detail)
	}
}

type fakeAuditable []Violation

func (f fakeAuditable) AuditInvariants() []Violation { return f }

func TestAuditAggregates(t *testing.T) {
	a := fakeAuditable{{Layer: "a", Name: "x", Detail: "1"}}
	b := fakeAuditable(nil)
	c := fakeAuditable{{Layer: "c", Name: "y", Detail: "2"}, {Layer: "c", Name: "z", Detail: "3"}}
	got := Audit(a, nil, b, c)
	if len(got) != 3 {
		t.Fatalf("Audit aggregated %d violations, want 3", len(got))
	}
	if got[0].Layer != "a" || got[2].Name != "z" {
		t.Fatalf("Audit order wrong: %v", got)
	}
}

func TestViolationErrorTruncatesList(t *testing.T) {
	var vs []Violation
	for i := 0; i < 7; i++ {
		vs = append(vs, Violationf("ssd", "leak", "n=%d", i))
	}
	err := &ViolationError{At: 5 * sim.Millisecond, Violations: vs}
	msg := err.Error()
	if !strings.Contains(msg, "7 invariant violation(s)") {
		t.Fatalf("missing count: %q", msg)
	}
	if !strings.Contains(msg, "and 3 more") {
		t.Fatalf("missing truncation note: %q", msg)
	}
	if strings.Contains(msg, "n=5") {
		t.Fatalf("message lists more than 4 violations: %q", msg)
	}
}

func TestStallErrorMessages(t *testing.T) {
	bare := &StallError{Axis: "sim-time", Horizon: 100 * sim.Millisecond}
	if !strings.Contains(bare.Error(), "sim-time stall") {
		t.Fatalf("bare message: %q", bare.Error())
	}
	full := &StallError{
		Axis:    "event-storm",
		Horizon: 100 * sim.Millisecond,
		Dump:    &Dump{SimTime: 7 * sim.Millisecond, InFlightTotal: 3, OldestAge: 200 * sim.Millisecond},
	}
	msg := full.Error()
	for _, want := range []string{"event-storm", "3 in-flight", "oldest age"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("message %q missing %q", msg, want)
		}
	}
}

// sampleDump builds a fully-populated dump from sim-state values only.
func sampleDump() *Dump {
	return &Dump{
		SimTime:         152 * sim.Millisecond,
		EventsProcessed: 123456,
		PendingEvents:   42,
		NextEventAt:     153 * sim.Millisecond,
		Submitted:       900,
		Completed:       512,
		Failed:          1,
		InFlightTotal:   387,
		OldestAge:       150 * sim.Millisecond,
		InFlight: []CommandInfo{
			{ID: 17, Initiator: 0, Target: 1, Write: false, Bytes: 44 << 10,
				SubmittedAt: 2 * sim.Millisecond, Age: 150 * sim.Millisecond},
			{ID: 21, Initiator: 0, Target: 0, Write: true, Bytes: 23 << 10,
				SubmittedAt: 2100 * sim.Microsecond, Age: 149900 * sim.Microsecond},
		},
		Initiators: []InitiatorState{{ID: 0, InFlight: 387, RetryPending: 0}},
		Targets: []TargetState{{
			ID: 0, Inflight: 200, TXQCredit: 0, TXQCap: 1 << 20, TXQWaiting: 3,
			DevOutstanding: 64, DevParked: 3, ArbPending: 136,
			SSQs: []SSQState{{RTokens: 1, WTokens: 0, PendingR: 90, PendingW: 46}},
		}},
		Links: []LinkState{{Name: "sw:p0->ini0", Down: false, Paused: true, QueueBytes: 1 << 16, QueuePkts: 12}},
	}
}

// TestDumpRenderDeterministic renders the same dump repeatedly: the
// report must be byte-identical (no wall-clock, no map iteration).
func TestDumpRenderDeterministic(t *testing.T) {
	first := sampleDump().String()
	for i := 0; i < 5; i++ {
		if got := sampleDump().String(); got != first {
			t.Fatalf("dump render not deterministic:\n%s\nvs\n%s", first, got)
		}
	}
	for _, want := range []string{"cmd 17", "tgt 1", "oldest age", "PAUSED"} {
		if !strings.Contains(first, want) {
			t.Fatalf("dump report missing %q:\n%s", want, first)
		}
	}
}

// TestDumpJSONRoundTrip keeps the dump machine-readable: every field
// survives a JSON round trip.
func TestDumpJSONRoundTrip(t *testing.T) {
	d := sampleDump()
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back Dump
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.String() != d.String() {
		t.Fatalf("dump changed across JSON round trip:\n%s\nvs\n%s", d.String(), back.String())
	}
}
