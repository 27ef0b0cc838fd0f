package core

import (
	"bytes"
	"math"
	"testing"

	"srcsim/internal/ml"
	"srcsim/internal/nvme"
	"srcsim/internal/sim"
	"srcsim/internal/trace"
)

func TestFeatureVectorLayout(t *testing.T) {
	us := sim.Microsecond
	tr := &trace.Trace{Requests: []trace.Request{
		{Op: trace.Read, Size: 10000, Arrival: 0},
		{Op: trace.Read, Size: 10000, Arrival: 10 * us},
		{Op: trace.Write, Size: 20000, Arrival: 5 * us},
		{Op: trace.Write, Size: 20000, Arrival: 15 * us},
	}}
	tr.Sort()
	ch := FeatureVector(trace.Extract(tr))
	if len(ch) != NumFeatures {
		t.Fatalf("feature vector length %d, want %d", len(ch), NumFeatures)
	}
	if ch[FeatReadRatio] != 0.5 {
		t.Fatalf("read ratio %v", ch[FeatReadRatio])
	}
	if ch[FeatReadMeanSize] != 10000 || ch[FeatWriteMeanSize] != 20000 {
		t.Fatalf("mean sizes %v / %v", ch[FeatReadMeanSize], ch[FeatWriteMeanSize])
	}
	if ch[FeatReadMeanIA] != float64(10*us) {
		t.Fatalf("read inter-arrival %v", ch[FeatReadMeanIA])
	}
	if ch[FeatReadFlowSpeed] <= 0 || ch[FeatWriteFlowSpeed] <= 0 {
		t.Fatal("flow speeds must be positive")
	}
	if len(FeatureNames) != NumFeatures {
		t.Fatal("FeatureNames out of sync")
	}
}

func TestMonitorWindowing(t *testing.T) {
	m := NewMonitor(10 * sim.Millisecond)
	for i := 0; i < 100; i++ {
		m.Record(trace.Request{Op: trace.Read, Size: 4096}, sim.Time(i)*sim.Millisecond)
	}
	// At t=99ms the window [89,99] holds ~11 entries.
	if c := m.Count(); c < 10 || c > 12 {
		t.Fatalf("window count %d, want ~11", c)
	}
	ch := m.Snapshot(99 * sim.Millisecond)
	if ch[FeatReadRatio] != 1 {
		t.Fatalf("read-only window ratio %v", ch[FeatReadRatio])
	}
	if ch[FeatReadMeanIA] != float64(sim.Millisecond) {
		t.Fatalf("window inter-arrival %v", ch[FeatReadMeanIA])
	}
}

func TestMonitorEmptyWindow(t *testing.T) {
	m := NewMonitor(5 * sim.Millisecond)
	m.Record(trace.Request{Op: trace.Write, Size: 4096}, 0)
	ch := m.Snapshot(sim.Second) // far past the entry
	for i, v := range ch {
		if v != 0 {
			t.Fatalf("empty window feature %d = %v", i, v)
		}
	}
	if m.Count() != 0 {
		t.Fatalf("count %d", m.Count())
	}
}

func TestMonitorDefaultWindow(t *testing.T) {
	if NewMonitor(0).Window() != 10*sim.Millisecond {
		t.Fatal("default window should be 10ms")
	}
}

// synthSamples builds training data from a known throughput law:
// tputR = S/(1+w) * 2, tputW = S*w/(1+w) * 2, with S derived from flow
// speed so the model must actually use the features.
func synthSamples(n int, seed uint64) []Sample {
	rng := sim.NewRNG(seed)
	samples := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		flow := 2e9 + rng.Float64()*8e9 // bits/s scale hidden in bytes/s feature
		w := float64(1 + rng.Intn(8))
		ch := make([]float64, NumFeatures)
		ch[FeatReadRatio] = 0.5
		ch[FeatReadMeanSize] = 30000
		ch[FeatWriteMeanSize] = 30000
		ch[FeatReadMeanIA] = 10000
		ch[FeatWriteMeanIA] = 10000
		ch[FeatReadFlowSpeed] = flow / 8
		ch[FeatWriteFlowSpeed] = flow / 8
		noise := 1 + rng.Norm(0, 0.01)
		samples = append(samples, Sample{
			Ch: ch, W: w,
			TputR: 2 * flow / (1 + w) * noise,
			TputW: 2 * flow * w / (1 + w) * noise,
		})
	}
	return samples
}

func TestTPMTrainPredict(t *testing.T) {
	train := synthSamples(2000, 1)
	test := synthSamples(400, 2)
	tpm := NewTPM()
	if err := tpm.Train(train); err != nil {
		t.Fatal(err)
	}
	if !tpm.Trained() {
		t.Fatal("Trained() false after Train")
	}
	// The default forest uses Breiman d/3 feature subsampling; on this
	// synthetic set (9 of 12 inputs are dead features) that costs a few
	// points of R² versus all-feature splits, so the bar is 0.75.
	if acc := tpm.Accuracy(test); acc < 0.75 {
		t.Fatalf("TPM accuracy %v, want > 0.75", acc)
	}
	// Monotonicity: predicted read throughput decreases in w.
	ch := test[0].Ch
	r1, w1 := tpm.Predict(ch, 1)
	r4, w4 := tpm.Predict(ch, 4)
	if r4 >= r1 {
		t.Fatalf("read prediction should fall with w: %v -> %v", r1, r4)
	}
	if w4 <= w1 {
		t.Fatalf("write prediction should rise with w: %v -> %v", w1, w4)
	}
}

func TestTPMErrors(t *testing.T) {
	tpm := NewTPM()
	if err := tpm.Train(nil); err == nil {
		t.Fatal("empty training set should error")
	}
	bad := synthSamples(10, 3)
	bad[5].Ch = bad[5].Ch[:3]
	if err := tpm.Train(bad); err == nil {
		t.Fatal("ragged features should error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Predict before Train should panic")
		}
	}()
	tpm.Predict(make([]float64, NumFeatures), 1)
}

func TestTPMFeatureImportanceHighlightsFlowSpeed(t *testing.T) {
	// In the synthetic law, throughput scales with flow speed; the
	// forest should put dominant weight on the flow-speed features (the
	// paper reports 0.39 for arrival flow speed).
	tpm := NewTPM()
	if err := tpm.Train(synthSamples(2000, 4)); err != nil {
		t.Fatal(err)
	}
	names, weights, ok := tpm.FeatureImportances()
	if !ok {
		t.Fatal("forest importances unavailable")
	}
	if len(names) != NumFeatures+1 {
		t.Fatalf("names length %d", len(names))
	}
	var flowWeight, total float64
	for i, n := range names {
		total += weights[i]
		if n == "read_flow_speed" || n == "write_flow_speed" {
			flowWeight += weights[i]
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("importances sum %v", total)
	}
	if flowWeight < 0.3 {
		t.Fatalf("flow-speed importance %v, want dominant (paper: 0.39)", flowWeight)
	}
}

func TestTPMCustomRegressor(t *testing.T) {
	tpm := &TPM{NewRegressor: func() ml.Regressor { return &ml.LinearRegression{} }}
	if err := tpm.Train(synthSamples(500, 5)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tpm.FeatureImportances(); ok {
		t.Fatal("linear TPM should not report forest importances")
	}
}

// fakeReg lets controller tests pin the exact prediction law.
type fakeReg struct {
	fn func(x []float64) float64
}

func (f *fakeReg) Fit([][]float64, []float64) error { return nil }
func (f *fakeReg) Predict(x []float64) float64      { return f.fn(x) }
func (f *fakeReg) Name() string                     { return "fake" }

// lawTPM builds a trained TPM where tputR(w) = 20e9/(1+w) exactly.
func lawTPM(t *testing.T) *TPM {
	t.Helper()
	n := 0
	tpm := &TPM{NewRegressor: func() ml.Regressor {
		n++
		read := n == 1
		return &fakeReg{fn: func(x []float64) float64 {
			w := x[len(x)-1]
			if read {
				return 20e9 / (1 + w)
			}
			return 20e9 * w / (1 + w)
		}}
	}}
	if err := tpm.Train(synthSamples(10, 6)); err != nil {
		t.Fatal(err)
	}
	return tpm
}

func TestPredictWeightRatioSearch(t *testing.T) {
	tpm := lawTPM(t)
	ssq := nvme.NewSSQ(1, 1)
	c := NewController(ControllerConfig{Tau: 0.01, MaxW: 64}, tpm, ssq)
	ch := make([]float64, NumFeatures)
	// tputR(1)=10e9 > 5e9 demanded; law hits exactly 5e9 at w=3.
	if w := c.PredictWeightRatio(5e9, ch); w != 3 {
		t.Fatalf("PredictWeightRatio(5G) = %d, want 3", w)
	}
	// Demand 2e9: 20/(1+w)=2 -> w=9.
	if w := c.PredictWeightRatio(2e9, ch); w != 9 {
		t.Fatalf("PredictWeightRatio(2G) = %d, want 9", w)
	}
	// Already below demand at w=1: return 1 (Alg. 1 lines 15-17).
	if w := c.PredictWeightRatio(15e9, ch); w != 1 {
		t.Fatalf("PredictWeightRatio(15G) = %d, want 1", w)
	}
}

func TestPredictWeightRatioConvergenceStopsSearch(t *testing.T) {
	// With a large tau the search should stop early (convergence
	// criterion), yielding a smaller w than the exact optimum.
	tpm := lawTPM(t)
	c := NewController(ControllerConfig{Tau: 0.5, MaxW: 64}, tpm, nvme.NewSSQ(1, 1))
	ch := make([]float64, NumFeatures)
	w := c.PredictWeightRatio(0.5e9, ch)
	if w >= 39 {
		t.Fatalf("tau=0.5 should stop the search early, got w=%d", w)
	}
}

func TestPredictWeightRatioRespectsMaxW(t *testing.T) {
	tpm := lawTPM(t)
	c := NewController(ControllerConfig{Tau: 1e-9, MaxW: 8}, tpm, nvme.NewSSQ(1, 1))
	ch := make([]float64, NumFeatures)
	if w := c.PredictWeightRatio(1, ch); w > 8 {
		t.Fatalf("w=%d exceeds MaxW", w)
	}
}

func TestOnRateEventAppliesWeights(t *testing.T) {
	tpm := lawTPM(t)
	ssq := nvme.NewSSQ(1, 1)
	c := NewController(ControllerConfig{Tau: 0.01, MaxW: 64}, tpm, ssq)
	for i := 0; i < 100; i++ {
		c.Monitor.Record(trace.Request{Op: trace.Read, Size: 30000}, sim.Time(i)*100*sim.Microsecond)
	}
	c.OnRateEvent(10*sim.Millisecond, 5e9)
	if got := ssq.WeightRatio(); got != 3 {
		t.Fatalf("SSQ ratio %v after pause event, want 3", got)
	}
	if len(c.Events) != 1 || c.Events[0].WeightRatio != 3 || c.Events[0].DemandedBps != 5e9 {
		t.Fatalf("event log %+v", c.Events)
	}
	// Retrieval event: rate back up -> smaller w.
	c.OnRateEvent(20*sim.Millisecond, 15e9)
	if got := ssq.WeightRatio(); got != 1 {
		t.Fatalf("SSQ ratio %v after retrieval event, want 1", got)
	}
}

func TestOnRateEventRateLimiting(t *testing.T) {
	tpm := lawTPM(t)
	ssq := nvme.NewSSQ(1, 1)
	c := NewController(ControllerConfig{Tau: 0.01, MaxW: 64, MinEventGap: sim.Millisecond}, tpm, ssq)
	c.OnRateEvent(0, 5e9)
	// Too soon: ignored.
	c.OnRateEvent(100*sim.Microsecond, 2e9)
	if len(c.Events) != 1 {
		t.Fatalf("event within MinEventGap not suppressed: %d events", len(c.Events))
	}
	// Later but nearly identical demand: ignored.
	c.OnRateEvent(5*sim.Millisecond, 5.1e9)
	if len(c.Events) != 1 {
		t.Fatalf("negligible demand change not suppressed: %d events", len(c.Events))
	}
	// Later and materially different: applied.
	c.OnRateEvent(10*sim.Millisecond, 2e9)
	if len(c.Events) != 2 {
		t.Fatalf("real event suppressed: %d events", len(c.Events))
	}
}

func TestControllerDefaults(t *testing.T) {
	c := NewController(ControllerConfig{}, NewTPM(), nvme.NewSSQ(1, 1))
	if c.Monitor.Window() != 10*sim.Millisecond || c.Cfg.Tau != 0.10 || c.Cfg.MaxW != 32 {
		t.Fatalf("defaults %+v", c.Cfg)
	}
	if c.CurrentWeightRatio() != 1 {
		t.Fatalf("initial ratio %v", c.CurrentWeightRatio())
	}
}

func BenchmarkMonitorSnapshot(b *testing.B) {
	m := NewMonitor(10 * sim.Millisecond)
	for i := 0; i < 5000; i++ {
		m.Record(trace.Request{Op: trace.Read, Size: 4096}, sim.Time(i)*2*sim.Microsecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Snapshot(10 * sim.Millisecond)
	}
}

func BenchmarkPredictWeightRatio(b *testing.B) {
	tpm := NewTPM()
	if err := tpm.Train(synthSamples(1000, 7)); err != nil {
		b.Fatal(err)
	}
	c := NewController(ControllerConfig{}, tpm, nvme.NewSSQ(1, 1))
	ch := synthSamples(1, 8)[0].Ch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.PredictWeightRatio(3e9, ch)
	}
}

// Property: PredictWeightRatio is antitone in the demanded rate — a
// tighter demand never selects a smaller weight ratio (Alg. 1 searches a
// monotone-decreasing predicted read curve).
func TestPropertyPredictWeightRatioAntitone(t *testing.T) {
	tpm := lawTPM(t)
	c := NewController(ControllerConfig{Tau: 0.01, MaxW: 64}, tpm, nvme.NewSSQ(1, 1))
	ch := make([]float64, NumFeatures)
	prevW := 0
	for _, demandG := range []float64{15, 10, 8, 6, 5, 4, 3, 2, 1, 0.5} {
		w := c.PredictWeightRatio(demandG*1e9, ch)
		if w < prevW {
			t.Fatalf("demand %vG chose w=%d below previous w=%d", demandG, w, prevW)
		}
		prevW = w
	}
}

func TestSSQGroupFansOut(t *testing.T) {
	g := SSQGroup{nvme.NewSSQ(1, 1), nvme.NewSSQ(1, 1)}
	g.SetWeights(1, 7)
	for i, s := range g {
		if s.WeightRatio() != 7 {
			t.Fatalf("member %d ratio %v", i, s.WeightRatio())
		}
	}
	if g.WeightRatio() != 7 {
		t.Fatalf("group ratio %v", g.WeightRatio())
	}
	if (SSQGroup{}).WeightRatio() != 1 {
		t.Fatal("empty group ratio should default to 1")
	}
}

func TestTPMSaveLoadRoundTrip(t *testing.T) {
	tpm := NewTPM()
	if err := tpm.Train(synthSamples(600, 51)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tpm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTPM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Trained() {
		t.Fatal("loaded TPM not trained")
	}
	ch := synthSamples(1, 52)[0].Ch
	for w := 1; w <= 8; w++ {
		r0, w0 := tpm.Predict(ch, float64(w))
		r1, w1 := back.Predict(ch, float64(w))
		if r0 != r1 || w0 != w1 {
			t.Fatalf("w=%d predictions changed after round trip", w)
		}
	}
}

func TestTPMSaveErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTPM().Save(&buf); err == nil {
		t.Fatal("Save before Train should error")
	}
	linTPM := &TPM{NewRegressor: func() ml.Regressor { return &ml.LinearRegression{} }}
	if err := linTPM.Train(synthSamples(200, 53)); err != nil {
		t.Fatal(err)
	}
	if err := linTPM.Save(&buf); err == nil {
		t.Fatal("non-forest TPM save should error")
	}
	if _, err := LoadTPM(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("junk load should error")
	}
}
