package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Want values from Python's statistics.quantiles(xs, n=4) and median.
	for _, c := range []struct {
		xs             []float64
		q1, median, q3 float64
	}{
		{[]float64{4}, 4, 4, 4},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{0.21, 0.19, 0.25, 0.2, 0.22, 0.3, 0.18}, 0.19, 0.21, 0.25},
		{[]float64{5, 5, 5, 9}, 5, 5, 8},
	} {
		s := summarize(c.xs)
		if !near(s.Q1, c.q1) || !near(s.Median, c.median) || !near(s.Q3, c.q3) || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", c.xs, s, c.q1, c.median, c.q3)
		}
	}
}

// kernelRuns returns n kernel runs of duration d, one every 10 ms from
// from on.
func kernelRuns(n int, from, d float64) []calRun {
	runs := make([]calRun, n)
	for i := range runs {
		runs[i] = calRun{T: from + float64(i)*0.01, D: d}
	}
	return runs
}

func TestScaleOf(t *testing.T) {
	// Nineteen kernel runs at half the reference time and one that was
	// interrupted: the slowest 5% are left out, and times grow by 2 raised
	// to calExponent.
	runs := kernelRuns(20, 0, calibrationRef/2)
	runs[7].D = 100 * calibrationRef
	if k, want := scaleOf(runs), math.Pow(2, calExponent); !near(k, want) {
		t.Errorf("scaleOf = %v, want %v", k, want)
	}
	if k := scaleOf(nil); k != 1 {
		t.Errorf("scaleOf without kernel runs = %v, want 1", k)
	}
}

func TestIterationsScaleByTheKernelAroundThem(t *testing.T) {
	// The host is fast (kernel at half the reference time) for the first
	// two seconds and at reference speed after; iteration 1 runs in the
	// fast part and iteration 2 in the slow one.
	cal := append(kernelRuns(200, 0, calibrationRef/2), kernelRuns(300, 2, calibrationRef)...)
	// The resident set is 100 MB with a 150 MB peak in iteration 1, then
	// 120 MB with a 500 MB peak between the iterations.
	for i := range cal {
		cal[i].RSS = 100
		if cal[i].T >= 2 {
			cal[i].RSS = 120
		}
	}
	cal[30].RSS, cal[300].RSS = 150, 500
	rep := &childReport{
		Cal: cal,
		Iters: []iterSample{
			{Iter: 1, Wall: 0.5, CPU: 0.25},
			{Iter: 2, Wall: 0.5, CPU: 0.25},
		},
		Spans: []span{
			{Name: "iteration", Start: 0, End: 0.5, Iter: 1},
			{Name: "cluster.new", Start: 0.1, End: 0.2, Iter: 1},
			{Name: "iteration", Start: 4, End: 4.5, Iter: 2},
			{Name: "cluster.new", Start: 4.1, End: 4.2, Iter: 2},
		},
	}
	fast := math.Pow(2, calExponent)
	s := endToEndSamples(rep)
	for i, want := range []float64{0.5 * fast, 0.5} {
		if !near(s["wall_s"][i], want) || !near(s["cpu_s"][i], want/2) {
			t.Errorf("iteration %d: scaled wall %v cpu %v, want %v and %v", i+1, s["wall_s"][i], s["cpu_s"][i], want, want/2)
		}
	}
	if got := s["setup_s"]; len(got) != 2 || !near(got[0], 0.1*fast) || !near(got[1], 0.1) {
		t.Errorf("scaled setup_s %v, want [%v 0.1]", got, 0.1*fast)
	}
	if got := s["peak_rss_mb"]; len(got) != 2 || got[0] != 150 || got[1] != 120 {
		t.Errorf("peak_rss_mb samples %v, want [150 120]", got)
	}

	// A window with fewer than calMinRuns runs falls back to the whole run.
	sparse := kernelRuns(calMinRuns-1, 0, calibrationRef/2)
	sparse = append(sparse, kernelRuns(calMinRuns-1, 10, calibrationRef)...)
	if k, want := scaleBetween(sparse, 0, 0.1), scaleOf(sparse); !near(k, want) {
		t.Errorf("sparse window: scale %v, want the whole run's %v", k, want)
	}
	if k := iterScales(rep)(9); k != 1 {
		t.Errorf("iteration without spans: scale %v, want 1", k)
	}
}

func TestSamplerStops(t *testing.T) {
	s := startSampler(time.Now())
	time.Sleep(3 * calPeriod)
	first, err := s.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 || first[0].RSS <= 0 {
		t.Errorf("no kernel run with a resident set in %v: %v", 3*calPeriod, first)
	}
	if again, _ := s.Stop(); len(again) != len(first) {
		t.Errorf("second Stop returned %d kernel runs, first %d", len(again), len(first))
	}
}

func TestReportNeedsExactlyTheDeclaredMetrics(t *testing.T) {
	declared := []metric{{Name: "a", Unit: "s"}, {Name: "b", Unit: "s"}}
	if _, err := report(io.Discard, "w", declared, map[string][]float64{"a": {1}}); err == nil {
		t.Error("a declared metric without samples was accepted")
	}
	if _, err := report(io.Discard, "w", declared, map[string][]float64{"a": {1}, "b": {2}, "c": {3}}); err == nil {
		t.Error("an undeclared metric was accepted")
	}
	got, err := report(io.Discard, "w", declared, map[string][]float64{"a": {1, 3}, "b": {2}})
	if err != nil || got["a"] != (valueUnit{Value: 2, Unit: "s"}) || got["b"].Value != 2 {
		t.Errorf("report = %v, %v", got, err)
	}
}

// TestSamplesCoverDeclaredMetrics checks that the sample collectors emit
// exactly the declared metrics, for a cluster workload and for tpm-train.
func TestSamplesCoverDeclaredMetrics(t *testing.T) {
	names := func(ms []metric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	keys := func(s map[string][]float64) []string {
		var out []string
		for k, xs := range s {
			if len(xs) == 0 {
				t.Errorf("metric %s has no samples", k)
			}
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	same := func(what string, got, want []string) {
		t.Helper()
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if string(g) != string(w) {
			t.Errorf("%s emits %s, declared %s", what, g, w)
		}
	}
	// One kernel run at the reference time: every scale is 1.
	cluster := &childReport{
		Iters:      []iterSample{{Iter: 1, Wall: 1, NsPerEvent: 200}, {Iter: 2, Wall: 1.2, NsPerEvent: 210}},
		TotalIters: 3,
		Spans: []span{
			{Name: "iteration", Start: 0, End: 1, Iter: 1},
			{Name: "cluster.new", Start: 0, End: 0.5, Iter: 1},
		},
		Model:  map[string]float64{"cluster.agg_gbps.base": 7},
		Events: map[string]float64{"netsim": 10},
		Cal:    []calRun{{T: 0.75, D: calibrationRef, RSS: 90}},
	}
	train := &childReport{
		Iters:      []iterSample{{Iter: 1, Wall: 4}},
		TotalIters: 2,
		Probes:     []int{2},
		Spans: []span{
			{Name: "iteration", Start: 0, End: 4, Iter: 1},
			{Name: "ssd.new", Start: 5, End: 5.25, Iter: 2},
		},
		Cal: []calRun{{T: 1, D: calibrationRef, RSS: 80}},
	}
	cpu, heap := loadTraces(t, "cpu.traces"), loadTraces(t, "heap.traces")
	for _, rep := range []*childReport{cluster, train} {
		same("endToEndSamples", keys(endToEndSamples(rep)), names(endToEnd))
		s, err := perLayerSamples(rep, rep, cpu, heap)
		if err != nil {
			t.Fatal(err)
		}
		same("perLayerSamples", keys(s), names(perLayer()))
	}
	// Set-up comes from the iterations that set something up.
	if s := endToEndSamples(cluster); len(s["setup_s"]) != 1 || s["setup_s"][0] != 0.5 {
		t.Errorf("cluster setup_s samples %v, want [0.5]", s["setup_s"])
	}
	if s := endToEndSamples(train); len(s["setup_s"]) != 1 || s["setup_s"][0] != 0.25 {
		t.Errorf("tpm-train setup_s samples %v, want [0.25]", s["setup_s"])
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json this program must agree
// with.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return &bj
}

// TestBenchmarkJSONMatches checks that every workload and metric the
// program emits is declared in BENCHMARK.json with the same unit,
// direction and bound, and that everything declared there is emitted.
func TestBenchmarkJSONMatches(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i := range min(len(bj.Workloads), len(workloads)) {
		d, w := bj.Workloads[i], workloads[i]
		if d.Name != w.Name || d.Why != w.Why {
			t.Errorf("workload %d declared %q (%q), program has %q (%q)", i, d.Name, d.Why, w.Name, w.Why)
		}
	}
	sameMetrics(t, "end_to_end", bj.EndToEnd, endToEnd)
	sameMetrics(t, "per_layer", bj.PerLayer, perLayer())
}

func sameMetrics(t *testing.T, section string, declared, emitted []metric) {
	t.Helper()
	want := map[string]metric{}
	for _, m := range declared {
		if _, dup := want[m.Name]; dup {
			t.Errorf("%s declares %s twice", section, m.Name)
		}
		want[m.Name] = m
	}
	got := map[string]bool{}
	for _, m := range emitted {
		if got[m.Name] {
			t.Errorf("program emits %s twice", m.Name)
		}
		got[m.Name] = true
		if d, ok := want[m.Name]; !ok {
			t.Errorf("%s: %s is emitted but not declared", section, m.Name)
		} else if d != m {
			t.Errorf("%s: %s declared %+v, emitted %+v", section, m.Name, d, m)
		}
	}
	for name := range want {
		if !got[name] {
			t.Errorf("%s: %s is declared but not emitted", section, name)
		}
	}
}

func TestNamesUnitsAndBounds(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why too long", w.Name)
		}
	}
	var setupBound, maxOther float64
	for _, m := range append(perLayer(), endToEnd...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q: bad name or unit", m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else {
			maxOther = max(maxOther, m.Bound)
		}
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxOther)
	}
}
