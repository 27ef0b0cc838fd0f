package cluster

// Summary-shape tests for the adaptive ladder ledger (ISSUE 7
// satellite 6, cluster side): with adaptation off, summaries must not
// contain any ladder/adapt key — the pre-adaptive JSON shape is golden
// — and an armed run that transitions must surface its ledger.

import (
	"bytes"
	"encoding/json"
	"testing"

	"srcsim/internal/core"
	"srcsim/internal/sim"
)

// TestSummaryShapeWithoutAdaptation: a DCQCN-SRC run with adaptation
// disabled must marshal without any adaptive key, byte-preserving the
// pre-adaptive golden shape.
func TestSummaryShapeWithoutAdaptation(t *testing.T) {
	spec := congestionSpec()
	spec.Mode = DCQCNSRC
	spec.TPM = sharedTPM(t)
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(vdiTrace(t, 300), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.Summary)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"ladder"`, `"adapt_`} {
		if bytes.Contains(b, []byte(key)) {
			t.Errorf("adaptation-off summary contains %s:\n%s", key, b)
		}
	}
	if res.Ladder != nil || res.Retrains != 0 || res.AdaptRecovered {
		t.Errorf("adaptation-off result carries ladder state: %+v %d %v",
			res.Ladder, res.Retrains, res.AdaptRecovered)
	}
}

// TestSummaryLedgerWithAdaptation: arming the ladder with a
// hair-trigger staleness watchdog forces a Static descent, which must
// appear in the summary's ladder ledger (and therefore in its JSON).
func TestSummaryLedgerWithAdaptation(t *testing.T) {
	spec := congestionSpec()
	spec.Mode = DCQCNSRC
	spec.TPM = sharedTPM(t)
	spec.SRC.StaleAfter = sim.Nanosecond
	spec.SRC.Adaptive = core.AdaptiveConfig{
		Enabled:      true,
		ObserveEvery: 100 * sim.Microsecond,
	}
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(vdiTrace(t, 300), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ladder) == 0 {
		t.Fatal("hair-trigger staleness produced no ladder transitions")
	}
	if res.Ladder[0].To != core.LadderStatic.String() {
		t.Fatalf("first transition %+v, want a Static descent", res.Ladder[0])
	}
	b, err := json.Marshal(res.Summary)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"ladder"`)) {
		t.Fatalf("adaptive summary lost its ladder ledger: %s", b)
	}
	if got := res.Completed + res.Failed; got != res.Submitted {
		t.Fatalf("accounting leak under adaptation: %d+%d != %d", res.Completed, res.Failed, res.Submitted)
	}
}
