package harness

import (
	"testing"

	"srcsim/internal/devrun"
	"srcsim/internal/sim"
	"srcsim/internal/ssd"
)

// TestWRRShapeAcrossTableIIDevices checks the paper's cross-device claim
// (Sec. IV-A/IV-C): the weight-ratio mechanism behaves consistently on
// all three Table II SSDs — equal R/W throughput at w=1 and a clear
// read-cut/write-boost at high w — even though their latencies, page
// sizes, and queue depths differ widely.
func TestWRRShapeAcrossTableIIDevices(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps every Table II device; skipped with -short")
	}
	for _, cfg := range []ssd.Config{ssd.ConfigA(), ssd.ConfigB(), ssd.ConfigC()} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			// Saturating symmetric workload, scaled to the device's
			// queue depth so WRR-shaped fetches dominate completions.
			count := devrun.MinTrainCount(cfg, 0)
			spec := devrun.WorkloadSpec{
				InterArrival: 8 * sim.Microsecond,
				MeanSize:     32 << 10,
				Count:        count,
				Seed:         7,
			}
			tr, err := spec.Trace()
			if err != nil {
				t.Fatal(err)
			}
			r1, err := devrun.Run(cfg, tr, 1)
			if err != nil {
				t.Fatal(err)
			}
			ratio := r1.WriteGbps / r1.ReadGbps
			if ratio < 0.8 || ratio > 1.25 {
				t.Fatalf("%s w=1: R %.2f vs W %.2f not equal", cfg.Name, r1.ReadGbps, r1.WriteGbps)
			}
			r6, err := devrun.Run(cfg, tr, 6)
			if err != nil {
				t.Fatal(err)
			}
			if r6.ReadGbps >= r1.ReadGbps*0.75 {
				t.Fatalf("%s: read did not fall with w: %.2f -> %.2f", cfg.Name, r1.ReadGbps, r6.ReadGbps)
			}
			if r6.WriteGbps <= r1.WriteGbps {
				t.Fatalf("%s: write did not rise with w: %.2f -> %.2f", cfg.Name, r1.WriteGbps, r6.WriteGbps)
			}
		})
	}
}

// TestTPMAccuracyOnOtherDevices checks the paper's "similar accuracy is
// also obtained for the other two types of SSDs" (Sec. IV-C): the
// random-forest TPM self-validates well on SSD-B and SSD-C samples.
func TestTPMAccuracyOnOtherDevices(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a TPM per device; skipped with -short")
	}
	for _, cfg := range []ssd.Config{ssd.ConfigB(), ssd.ConfigC()} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			tpm, samples, err := devrun.TrainTPM(cfg, 0, 5)
			if err != nil {
				t.Fatal(err)
			}
			if acc := tpm.Accuracy(samples); acc < 0.9 {
				t.Fatalf("%s in-sample accuracy %.2f", cfg.Name, acc)
			}
		})
	}
}
