package harness

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"srcsim/internal/sim"
)

// TestRegistryListing asserts the registry enumerates every experiment
// the front-ends expose, in stable listing order.
func TestRegistryListing(t *testing.T) {
	want := []string{"fig2", "fig5", "fig7", "fig9", "fig10", "table1", "table3", "table4",
		"importance", "chaos-soak", "adapt-aging", "adapt-phase", "adapt-failover",
		"ctrl-degradation", "ctrl-failover", "cc-matrix", "clos-scale", "replay", "scenario"}
	got := ExperimentNames()
	if len(got) != len(want) {
		t.Fatalf("registered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registered %v, want %v", got, want)
		}
	}
	for _, name := range want {
		e, ok := LookupExperiment(name)
		if !ok {
			t.Fatalf("lookup %s failed", name)
		}
		if e.Run == nil {
			t.Fatalf("%s has no Run", name)
		}
		if e.Title == "" {
			t.Fatalf("%s has no title", name)
		}
	}
	if _, ok := LookupExperiment("fig404"); ok {
		t.Fatal("lookup of unregistered name succeeded")
	}

	var b strings.Builder
	FprintExperiments(&b)
	for _, name := range want {
		if !strings.Contains(b.String(), name) {
			t.Fatalf("listing missing %s:\n%s", name, b.String())
		}
	}
}

// TestResolveDefaultsAndOverrides covers default fill-in, override
// overlay, and the unknown-parameter error that catches campaign-grid
// typos at expansion time.
func TestResolveDefaultsAndOverrides(t *testing.T) {
	e, _ := LookupExperiment("fig7")
	p, err := e.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p["requests"] != "2000" || p["seed"] != "7" || p["cc"] != "dcqcn" {
		t.Fatalf("defaults: %v", p)
	}

	p, err = e.Resolve(map[string]string{"requests": "250"})
	if err != nil {
		t.Fatal(err)
	}
	if p["requests"] != "250" || p["seed"] != "7" {
		t.Fatalf("override: %v", p)
	}

	if _, err := e.Resolve(map[string]string{"requsets": "250"}); err == nil {
		t.Fatal("typo'd parameter name accepted")
	}
}

// TestParamParsers covers the typed accessors' error paths.
func TestParamParsers(t *testing.T) {
	p := Params{"n": "12", "f": "0.5", "s": "7", "ws": "1, 4,8", "fs": "0, 0.5,1e-2", "bad": "x"}
	if v, err := p.Int("n"); err != nil || v != 12 {
		t.Fatalf("Int: %v %v", v, err)
	}
	if v, err := p.Float("f"); err != nil || v != 0.5 {
		t.Fatalf("Float: %v %v", v, err)
	}
	if v, err := p.Uint64("s"); err != nil || v != 7 {
		t.Fatalf("Uint64: %v %v", v, err)
	}
	ws, err := p.Ints("ws")
	if err != nil || len(ws) != 3 || ws[0] != 1 || ws[1] != 4 || ws[2] != 8 {
		t.Fatalf("Ints: %v %v", ws, err)
	}
	fs, err := p.Floats("fs")
	if err != nil || len(fs) != 3 || fs[0] != 0 || fs[1] != 0.5 || fs[2] != 0.01 {
		t.Fatalf("Floats: %v %v", fs, err)
	}
	if _, err := p.Int("bad"); err == nil {
		t.Fatal("Int on junk accepted")
	}
	if _, err := p.Ints("bad"); err == nil {
		t.Fatal("Ints on junk accepted")
	}
	if _, err := p.Floats("bad"); err == nil {
		t.Fatal("Floats on junk accepted")
	}
}

func TestParseEvents(t *testing.T) {
	evs, err := parseEvents("60:6,100:3.5,180:10")
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("parsed %d events", len(evs))
	}
	if evs[0].At != 60*sim.Millisecond || evs[0].DemandGbps != 6 {
		t.Fatalf("first event %+v", evs[0])
	}
	if evs[1].At != 100*sim.Millisecond || evs[1].DemandGbps != 3.5 {
		t.Fatalf("second event %+v", evs[1])
	}
}

func TestParseEventsEmpty(t *testing.T) {
	evs, err := parseEvents("")
	if err != nil || evs != nil {
		t.Fatalf("empty spec: %v %v", evs, err)
	}
}

func TestParseEventsErrors(t *testing.T) {
	for _, bad := range []string{"60", "x:6", "60:y", "60:6,bad"} {
		if _, err := parseEvents(bad); err == nil {
			t.Errorf("%q should fail", bad)
		}
	}
}

// TestClosScale runs the full-fabric experiment at a reduced request
// count: every submitted request completes, and the machine-readable
// data is byte-identical across two runs.
func TestClosScale(t *testing.T) {
	e, _ := LookupExperiment("clos-scale")
	p, err := e.Resolve(map[string]string{"requests": "20"})
	if err != nil {
		t.Fatal(err)
	}
	var runs [2][]byte
	for i := range runs {
		out, err := e.Run(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		res := out.Data.(*ClosScaleResult)
		if res.Submitted != 2*20*closActivePairs || res.Completed != res.Submitted {
			t.Fatalf("completed %d of %d submitted", res.Completed, res.Submitted)
		}
		if runs[i], err = json.Marshal(out.Data); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatalf("clos-scale data differs across runs:\n%s\n%s", runs[0], runs[1])
	}
}

// TestRunFig2 runs the one self-contained analytic experiment through
// the registry and checks Text matches the direct renderer, Data
// carries the rows, and out-of-range cut factors are refused.
func TestRunFig2(t *testing.T) {
	e, _ := LookupExperiment("fig2")
	p, err := e.Resolve(map[string]string{"cut_factor": "0.25"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	fp := DefaultFig2Params()
	fp.CutFactor = 0.25
	want := render(func(w io.Writer) { FprintFig2(w, Fig2Motivation(fp)) })
	if out.Text != want {
		t.Fatalf("text mismatch:\ngot:\n%s\nwant:\n%s", out.Text, want)
	}
	rows, ok := out.Data.([]Fig2Row)
	if !ok || len(rows) != 3 {
		t.Fatalf("data: %T %v", out.Data, out.Data)
	}

	// A cut factor must be a rate fraction: a negative rate, a read rate
	// above the network's capacity, or NaN is refused, naming the param.
	for _, cut := range []string{"-1", "2", "NaN", "1.0001"} {
		p, err := e.Resolve(map[string]string{"cut_factor": cut})
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.Run(nil, p)
		if err == nil || !strings.Contains(err.Error(), "cut_factor") {
			t.Errorf("cut_factor=%s: err %v, want an error naming cut_factor", cut, err)
		}
	}
}

// TestRunWithoutTPMFails asserts a model-dependent experiment fails
// cleanly when the environment provides no trainer, instead of
// panicking mid-simulation.
func TestRunWithoutTPMFails(t *testing.T) {
	e, _ := LookupExperiment("fig7")
	p, err := e.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(nil, p); err == nil {
		t.Fatal("fig7 ran without a TPM")
	}
	if _, err := e.Run(&Env{}, p); err == nil {
		t.Fatal("fig7 ran with an empty Env")
	}
}

// TestReplayRequiresFile asserts replay validates its file parameter
// before touching the TPM.
func TestReplayRequiresFile(t *testing.T) {
	e, _ := LookupExperiment("replay")
	p, err := e.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(nil, p); err == nil {
		t.Fatal("replay ran without a file")
	}
}
