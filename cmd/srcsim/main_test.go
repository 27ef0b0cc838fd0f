package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"srcsim/internal/devrun"
	"srcsim/internal/harness"
	"srcsim/internal/ssd"
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
