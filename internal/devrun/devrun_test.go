package devrun

import (
	"math"
	"testing"

	"srcsim/internal/sim"
	"srcsim/internal/ssd"
	"srcsim/internal/trace"
	"srcsim/internal/workload"
)

// heavySpec is an overloaded symmetric workload where WRR is effective.
func heavySpec(seed uint64) WorkloadSpec {
	return WorkloadSpec{
		InterArrival: 10 * sim.Microsecond,
		MeanSize:     40 << 10,
		Count:        2500,
		Seed:         seed,
	}
}

// mustTrace materialises a spec, failing the test on generator error.
func mustTrace(tb testing.TB, ws WorkloadSpec) *trace.Trace {
	tb.Helper()
	tr, err := ws.Trace()
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

func TestRunBasics(t *testing.T) {
	res, err := Run(ssd.ConfigA(), mustTrace(t, heavySpec(1)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 5000 {
		t.Fatalf("completed %d", res.Completed)
	}
	if res.ReadGbps <= 0 || res.WriteGbps <= 0 {
		t.Fatalf("throughputs %v/%v", res.ReadGbps, res.WriteGbps)
	}
	// Preconditioned CMT: mapping misses should be rare.
	if res.CMTHitRate < 0.95 {
		t.Fatalf("CMT hit rate %v after preconditioning", res.CMTHitRate)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(ssd.ConfigA(), mustTrace(t, heavySpec(1)), 0); err == nil {
		t.Fatal("w=0 should error")
	}
	if _, err := Run(ssd.ConfigA(), mustTrace(t, heavySpec(1)), -1); err == nil {
		t.Fatal("negative w should error")
	}
	if _, err := Run(ssd.ConfigA(), mustTrace(t, WorkloadSpec{Count: 0, InterArrival: 1, MeanSize: 1}), 1); err == nil {
		t.Fatal("empty trace should error")
	}
}

// TestFig5Shape verifies the three Fig. 5 observations on SSD-A:
// (1) equal read/write throughput at w = 1;
// (2) read falls and write rises as w grows under heavy load;
// (3) the effect fades under light load (WRR degrades to RR).
func TestFig5Shape(t *testing.T) {
	heavy := mustTrace(t, heavySpec(2))
	r1, err := Run(ssd.ConfigA(), heavy, 1)
	if err != nil {
		t.Fatal(err)
	}
	ratio := r1.WriteGbps / r1.ReadGbps
	if ratio < 0.85 || ratio > 1.2 {
		t.Fatalf("w=1 R/W not equal: R=%.2f W=%.2f", r1.ReadGbps, r1.WriteGbps)
	}
	r4, err := Run(ssd.ConfigA(), heavy, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r4.ReadGbps >= r1.ReadGbps*0.8 {
		t.Fatalf("heavy: read did not fall with w: %.2f -> %.2f", r1.ReadGbps, r4.ReadGbps)
	}
	if r4.WriteGbps <= r1.WriteGbps*1.05 {
		t.Fatalf("heavy: write did not rise with w: %.2f -> %.2f", r1.WriteGbps, r4.WriteGbps)
	}

	light := mustTrace(t, WorkloadSpec{
		InterArrival: 25 * sim.Microsecond, MeanSize: 10 << 10, Count: 2500, Seed: 3,
	})
	l1, err := Run(ssd.ConfigA(), light, 1)
	if err != nil {
		t.Fatal(err)
	}
	l8, err := Run(ssd.ConfigA(), light, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l8.ReadGbps-l1.ReadGbps)/l1.ReadGbps > 0.1 {
		t.Fatalf("light: w should be ineffective: %.2f vs %.2f", l1.ReadGbps, l8.ReadGbps)
	}
}

func TestRunDeterminism(t *testing.T) {
	a, err := Run(ssd.ConfigB(), mustTrace(t, heavySpec(5)), 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ssd.ConfigB(), mustTrace(t, heavySpec(5)), 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.ReadGbps != b.ReadGbps || a.WriteGbps != b.WriteGbps || a.Duration != b.Duration {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestWorkloadSpecAsymmetric(t *testing.T) {
	spec := WorkloadSpec{
		InterArrival: 10 * sim.Microsecond, MeanSize: 44 << 10, Count: 1000,
		WriteInterArrival: 20 * sim.Microsecond, WriteMeanSize: 23 << 10, WriteCount: 500,
		Seed: 4,
	}
	tr := mustTrace(t, spec)
	if tr.Len() != 1500 {
		t.Fatalf("trace len %d", tr.Len())
	}
	reads, writes := tr.ByOp()
	if reads.Len() != 1000 || writes.Len() != 500 {
		t.Fatalf("split %d/%d", reads.Len(), writes.Len())
	}
}

func TestDefaultGridCoversPaperSweep(t *testing.T) {
	grid := DefaultGrid(100, 1)
	if len(grid) != 16 {
		t.Fatalf("grid size %d, want 4x4", len(grid))
	}
	seen := map[[2]int64]bool{}
	for _, g := range grid {
		seen[[2]int64{int64(g.InterArrival), int64(g.MeanSize)}] = true
	}
	if len(seen) != 16 {
		t.Fatalf("grid points not unique: %d", len(seen))
	}
}

func TestCollectSamplesParallelDeterministic(t *testing.T) {
	specs := DefaultGrid(400, 7)[:4]
	ws := []int{1, 4}
	traceOf := func(i int) (*trace.Trace, error) { return specs[i].Trace() }
	a, err := CollectSamples(ssd.ConfigA(), len(specs), traceOf, ws, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CollectSamples(ssd.ConfigA(), len(specs), traceOf, ws, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 8 || len(b) != 8 {
		t.Fatalf("sample counts %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i].TputR != b[i].TputR || a[i].TputW != b[i].TputW || a[i].W != b[i].W {
			t.Fatalf("sample %d differs across parallel runs", i)
		}
		if a[i].Group != 3 {
			t.Fatalf("group label lost: %+v", a[i])
		}
		if len(a[i].Ch) == 0 || a[i].TputR <= 0 {
			t.Fatalf("degenerate sample %+v", a[i])
		}
	}
}

// TestCollectSamplesFromTraces feeds the collector a pre-generated trace,
// as Table III does with its synthetic workloads.
func TestCollectSamplesFromTraces(t *testing.T) {
	tr, err := workload.Intensity(workload.Moderate, 1, 800)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := CollectSamples(ssd.ConfigA(), 1, func(int) (*trace.Trace, error) { return tr, nil }, []int{1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("samples %d", len(samples))
	}
	if samples[0].W != 1 || samples[1].W != 2 {
		t.Fatalf("weights %v/%v", samples[0].W, samples[1].W)
	}
}

func TestTrainTPMProducesUsableModel(t *testing.T) {
	tpm, samples, err := TrainTPM(ssd.ConfigA(), 600, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !tpm.Trained() {
		t.Fatal("TPM not trained")
	}
	if len(samples) < 100 {
		t.Fatalf("too few samples: %d", len(samples))
	}
	// Self-accuracy should be high (in-sample random forest).
	if acc := tpm.Accuracy(samples); acc < 0.9 {
		t.Fatalf("in-sample accuracy %v", acc)
	}
	// Prediction must be monotone-ish in w for a heavy workload sample.
	var heavy *float64
	for _, s := range samples {
		if s.W == 1 && s.TputR > 4e9 {
			r1, _ := tpm.Predict(s.Ch, 1)
			r8, _ := tpm.Predict(s.Ch, 8)
			if r8 >= r1 {
				t.Fatalf("predicted read should fall with w: %v -> %v", r1, r8)
			}
			v := r1
			heavy = &v
			break
		}
	}
	if heavy == nil {
		t.Fatal("no heavy w=1 sample found")
	}
}

func BenchmarkDeviceRun(b *testing.B) {
	tr := mustTrace(b, heavySpec(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ssd.ConfigA(), tr, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRunLatencyHistograms(t *testing.T) {
	res, err := Run(ssd.ConfigA(), mustTrace(t, heavySpec(21)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadLatency.Count() == 0 || res.WriteLatency.Count() == 0 {
		t.Fatal("latency histograms empty")
	}
	// Overloaded run: p99 must exceed p50, and all quantiles positive.
	if res.ReadLatency.Quantile(0.99) <= res.ReadLatency.Quantile(0.5) {
		t.Fatalf("read p99 %.3f <= p50 %.3f", res.ReadLatency.Quantile(0.99), res.ReadLatency.Quantile(0.5))
	}
	if res.ReadLatency.Quantile(0.5) <= 0 {
		t.Fatal("non-positive median latency")
	}
}

func TestHigherWeightCutsWriteLatency(t *testing.T) {
	// Prioritising writes must reduce their queueing latency under load.
	tr := mustTrace(t, heavySpec(22))
	r1, err := Run(ssd.ConfigA(), tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	r6, err := Run(ssd.ConfigA(), tr, 6)
	if err != nil {
		t.Fatal(err)
	}
	if r6.WriteLatency.Quantile(0.5) >= r1.WriteLatency.Quantile(0.5) {
		t.Fatalf("w=6 write p50 %.2fms should beat w=1 %.2fms",
			r6.WriteLatency.Quantile(0.5), r1.WriteLatency.Quantile(0.5))
	}
	if r6.ReadLatency.Quantile(0.5) <= r1.ReadLatency.Quantile(0.5) {
		t.Fatalf("w=6 read p50 %.2fms should exceed w=1 %.2fms",
			r6.ReadLatency.Quantile(0.5), r1.ReadLatency.Quantile(0.5))
	}
}
