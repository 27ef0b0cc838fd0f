package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"srcsim/internal/devrun"
	"srcsim/internal/harness"
	"srcsim/internal/obs"
	"srcsim/internal/sim"
	"srcsim/internal/ssd"
	"srcsim/internal/trace"
	"srcsim/internal/workload"
)

// runCLI runs srcsim with args and returns its stdout, failing the test
// on an exit code other than want.
func runCLI(t *testing.T, want int, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if code := run(args, &out); code != want {
		t.Fatalf("srcsim %s: exit %d, want %d", strings.Join(args, " "), code, want)
	}
	return out.String()
}

// warmCache points the model cache at a test directory when caching is
// off, so a test that runs an experiment twice trains its model once.
func warmCache(t *testing.T) {
	if devrun.TPMCacheFromEnv() == nil {
		t.Setenv(devrun.TPMCacheEnv, t.TempDir())
	}
}

// TestListBuildsFlagSet builds the full flag set (one flag per registry
// parameter name: a name colliding with a srcsim flag panics) and lists
// every registered experiment.
func TestListBuildsFlagSet(t *testing.T) {
	out := runCLI(t, exitOK, "-list")
	for _, name := range harness.ExperimentNames() {
		if !strings.Contains(out, name) {
			t.Errorf("-list misses %s", name)
		}
	}
}

// TestParamFlagsOverlay runs fig5 through its parameter flags and
// compares against the direct renderer.
func TestParamFlagsOverlay(t *testing.T) {
	got := runCLI(t, exitOK, "-experiment", "fig5", "-weights", "1,2", "-count", "150")
	cells, err := harness.Fig5WeightSweep(ssd.ConfigA(), []int{1, 2}, 150, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	harness.FprintFig5(&want, cells)
	if got != want.String() {
		t.Fatalf("srcsim fig5:\n%s\ndirect render:\n%s", got, want.String())
	}
}

func TestBadParamExits1(t *testing.T) {
	runCLI(t, exitError, "-experiment", "fig2", "-cut_factor", "2")
	runCLI(t, exitError, "-experiment", "fig404")
	runCLI(t, exitError, "-experiment", "tracegen", "-count", "10", "-ia", "10")
	runCLI(t, exitError, "-campaign", "spec.json")
}

// TestEncoderForErrors: tracegen writes only csv and jsonl; msr is an
// inspect-only format and an unknown format is refused.
func TestEncoderForErrors(t *testing.T) {
	runCLI(t, exitError, "-experiment", "tracegen", "-count", "10", "-format", "msr")
	runCLI(t, exitError, "-experiment", "tracegen", "-count", "10", "-format", "bogus")
}

// TestBuildTraceErrors: tracegen refuses an unknown workload kind.
func TestBuildTraceErrors(t *testing.T) {
	runCLI(t, exitError, "-experiment", "tracegen", "-count", "10", "-kind", "bogus")
}

// TestTPMFlag writes the congestion model with -save-tpm, then checks
// a fig7 run that loads it with -tpm prints exactly what the same run
// prints when it resolves the model itself, and that -tpm never reaches
// fig9, which trains its own model for the Fig. 9 device.
func TestTPMFlag(t *testing.T) {
	warmCache(t)
	path := filepath.Join(t.TempDir(), "tpm.bin")
	runCLI(t, exitOK, "-save-tpm", path, "-train", "150")

	fig7 := []string{"-experiment", "fig7", "-requests", "200", "-train", "150"}
	loaded := runCLI(t, exitOK, append(fig7, "-tpm", path)...)
	trained := runCLI(t, exitOK, fig7...)
	if loaded != trained {
		t.Fatalf("fig7 with -tpm:\n%s\nwithout:\n%s", loaded, trained)
	}

	// A short schedule; train 1000 at seed 43^0xd1c7 is the Fig. 9 model
	// the harness tests share through the cache.
	fig9 := []string{"-experiment", "fig9", "-events", "20:6", "-train", "1000", "-seed", "53740"}
	without := runCLI(t, exitOK, fig9...)
	with := runCLI(t, exitOK, append(fig9, "-tpm", path)...)
	if with != without {
		t.Fatalf("fig9 with -tpm:\n%s\nwithout:\n%s", with, without)
	}
	if !strings.Contains(without, "Fig. 9") {
		t.Fatalf("fig9 output:\n%s", without)
	}
}

// TestJSONPrintsData checks -json prints the experiment's Data.
func TestJSONPrintsData(t *testing.T) {
	out := runCLI(t, exitOK, "-experiment", "fig2", "-json")
	if !strings.HasPrefix(out, "[{") || !strings.HasSuffix(out, "}]\n") {
		t.Fatalf("fig2 -json:\n%s", out)
	}
}

// TestGenerateJSONLRoundTrip: every tracegen kind written with -format
// jsonl decodes through the strict reader to exactly the request stream
// the workload builder generates for the same knobs.
func TestGenerateJSONLRoundTrip(t *testing.T) {
	ia := 10 * sim.Microsecond
	for _, kind := range []string{"micro", "synthetic", "vdi", "cbs"} {
		out := runCLI(t, exitOK, "-experiment", "tracegen", "-kind", kind, "-count", "200", "-format", "jsonl")
		rt, err := trace.ReadJSONL(strings.NewReader(out))
		if err != nil {
			t.Fatalf("%s: decode: %v", kind, err)
		}
		tr, err := workload.Build(kind, 200, workload.SyntheticConfig{
			Seed:      1,
			ReadCount: 200, WriteCount: 200,
			ReadInterArrival: ia, WriteInterArrival: ia,
			ReadInterArrivalSCV: 4, WriteInterArrivalSCV: 4,
			ReadACF1: 0.2, WriteACF1: 0.2,
			ReadMeanSize: 32 << 10, WriteMeanSize: 32 << 10,
			ReadSizeSCV: 2, WriteSizeSCV: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if rt.Len() != tr.Len() {
			t.Fatalf("%s: round-trip length %d != %d", kind, rt.Len(), tr.Len())
		}
		for i := range tr.Requests {
			if rt.Requests[i] != tr.Requests[i] {
				t.Fatalf("%s: request %d: %+v != %+v", kind, i, rt.Requests[i], tr.Requests[i])
			}
		}
	}
}

// TestGenerateJSONLDeterministic: the same seed gives the same bytes,
// led by the open format's header line; -file reads the trace back and
// prints its statistics, and -json prints them as data.
func TestGenerateJSONLDeterministic(t *testing.T) {
	gen := []string{"-experiment", "tracegen", "-count", "100", "-seed", "7", "-size", "16384", "-format", "jsonl"}
	a, b := runCLI(t, exitOK, gen...), runCLI(t, exitOK, gen...)
	if a != b {
		t.Fatal("same seed produced different jsonl bytes")
	}
	if !strings.HasPrefix(a, `{"format":"srcsim-trace"`) {
		t.Fatalf("missing header line: %q", a[:min(len(a), 80)])
	}

	path := filepath.Join(t.TempDir(), "t.jsonl")
	if err := os.WriteFile(path, []byte(a), 0o644); err != nil {
		t.Fatal(err)
	}
	text := runCLI(t, exitOK, "-experiment", "tracegen", "-file", path, "-format", "jsonl")
	if !strings.HasPrefix(text, "reads=100(") || !strings.Contains(text, "\nwrite: n=100 ") {
		t.Fatalf("inspect output:\n%s", text)
	}
	var st trace.Stats
	if err := json.Unmarshal([]byte(runCLI(t, exitOK, append(gen, "-json")...)), &st); err != nil {
		t.Fatal(err)
	}
	if st.Read.Count != 100 || st.Write.Count != 100 {
		t.Fatalf("-json stats: %+v", st)
	}
}

// TestCampaignCacheReplay runs a tiny campaign twice against one
// artifact cache: the second run is all cache hits and writes
// byte-identical report, aggregate and metrics files. The fig7 job
// supplies the metrics; its small model trains once, in the first run.
func TestCampaignCacheReplay(t *testing.T) {
	t.Setenv(devrun.TPMCacheEnv, t.TempDir())
	dir := t.TempDir()
	spec := filepath.Join(dir, "campaign.json")
	if err := os.WriteFile(spec, []byte(`{"name": "tiny", "seed": 7, "experiments": [
		{"experiment": "fig2", "grid": {"cut_factor": ["0.25", "0.5"]}},
		{"experiment": "fig5", "params": {"weights": "1,2", "count": "100"}},
		{"experiment": "fig7", "params": {"requests": "100"}}], "train_count": 150}`), 0o644); err != nil {
		t.Fatal(err)
	}
	outs := []string{filepath.Join(dir, "run1"), filepath.Join(dir, "run2")}
	for _, out := range outs {
		runCLI(t, exitOK, "-campaign", spec, "-out", out)
	}

	f, err := os.Open(filepath.Join(outs[1], "progress.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	done := 0
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var ev struct {
			Event  string `json:"event"`
			Job    string `json:"job"`
			Cached bool   `json:"cached"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Event == "done" {
			done++
			if !ev.Cached {
				t.Errorf("second run executed %s instead of a cache hit", ev.Job)
			}
		}
	}
	if done != 4 {
		t.Fatalf("second run finished %d jobs, want 4", done)
	}

	for _, name := range []string{"report.txt", "aggregate.json", "metrics.json"} {
		a, errA := os.ReadFile(filepath.Join(outs[0], name))
		b, errB := os.ReadFile(filepath.Join(outs[1], name))
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v / %v", name, errA, errB)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between the runs", name)
		}
	}
}

func writeSnapshot(t *testing.T, path string, marks float64) {
	t.Helper()
	b, err := json.MarshalIndent(obs.Snapshot{
		Counters: map[string]float64{"netsim/ecn_marks": marks},
		Histograms: map[string]obs.HistogramSnapshot{
			"ssd/lat": {Count: 10, Mean: 5, P50: 4, P99: 9, P999: 9.5, Min: 1, Max: 10},
		},
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadSnapshotForms: a snapshot file and a campaign directory
// holding metrics.json resolve to the snapshot; empty snapshots,
// directories without metrics.json and missing paths are refused.
func TestLoadSnapshotForms(t *testing.T) {
	dir := t.TempDir()
	writeSnapshot(t, filepath.Join(dir, "metrics.json"), 100)
	for _, path := range []string{filepath.Join(dir, "metrics.json"), dir} {
		s, err := loadSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		if s.Counters["netsim/ecn_marks"] != 100 || s.Histograms["ssd/lat"].Count != 10 {
			t.Fatalf("%s: %+v", path, s)
		}
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{bad, t.TempDir(), filepath.Join(dir, "nope.json")} {
		if _, err := loadSnapshot(path); err == nil {
			t.Fatalf("%s accepted", path)
		}
	}
}

// TestDiffGate: -diff exits 0 on identical sources, 2 on a perturbed
// counter (a "!" row), 0 again once -rel absorbs the perturbation, and
// 1 on a missing file or a wrong argument count.
func TestDiffGate(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	writeSnapshot(t, a, 100)
	writeSnapshot(t, b, 101)

	if out := runCLI(t, exitOK, "-diff", a, a); !strings.HasPrefix(out, "identical metrics") {
		t.Fatalf("self-diff:\n%s", out)
	}
	if out := runCLI(t, exitCheck, "-diff", a, b); !strings.Contains(out, "!  netsim/ecn_marks") {
		t.Fatalf("perturbed diff:\n%s", out)
	}
	runCLI(t, exitOK, "-diff", "-rel", "0.02", a, b)
	var d obs.Diff
	if err := json.Unmarshal([]byte(runCLI(t, exitCheck, "-diff", "-json", a, b)), &d); err != nil {
		t.Fatal(err)
	}
	if d.Breaches != 1 {
		t.Fatalf("-json diff: %+v", d)
	}
	runCLI(t, exitError, "-diff", a, filepath.Join(dir, "missing.json"))
	runCLI(t, exitError, "-diff", a)
}

// TestSignalDuringGraceEndsIt: once stop is called the run is over, so
// a SIGTERM that arrives while stop holds the live inspector up for its
// grace window ends the window at once and truncates nothing.
func TestSignalDuringGraceEndsIt(t *testing.T) {
	stopper, _, stop, err := govern(0, "127.0.0.1:0", 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// stop closes the run before it waits out the grace window; the
	// signal comes well after that. Cancelling the timer keeps a stop
	// that returns too early from leaving an uncaught SIGTERM behind.
	kill := time.AfterFunc(100*time.Millisecond, func() {
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Error(err)
		}
	})
	defer kill.Stop()
	start := time.Now()
	stop()
	if d := time.Since(start); d > time.Second {
		t.Errorf("stop returned after %v, want the signal to end the grace window", d)
	}
	if stopper.Stopped() {
		t.Errorf("stopper fired after the run finished: %q", stopper.Reason())
	}
}
