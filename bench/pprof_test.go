package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// The fixtures in testdata are `go tool pprof -traces` output of this
// program's profiles, cut down to a few stacks (the CPU header's total
// adjusted to the stacks kept).

func loadTraces(t *testing.T, name string) *traceProfile {
	t.Helper()
	f, err := os.Open("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestParseTracesCPU(t *testing.T) {
	p := loadTraces(t, "cpu.traces")
	if p.Type != "cpu" || p.Total != 1650 {
		t.Fatalf("header: type %q total %v, want cpu 1650", p.Type, p.Total)
	}
	wantValues := []float64{10, 30, 360, 10, 10, 1200, 30}
	if len(p.Samples) != len(wantValues) {
		t.Fatalf("%d samples, want %d", len(p.Samples), len(wantValues))
	}
	for i, v := range wantValues {
		if p.Samples[i].Value != v {
			t.Errorf("sample %d value %v ms, want %v", i, p.Samples[i].Value, v)
		}
	}
	first := p.Samples[0].Frames
	if len(first) != 10 || first[0] != "runtime.(*mspan).objIndex" || first[9] != "main.iterate" {
		t.Errorf("first stack %q", first)
	}
}

func TestParseTracesHeapSkipsLabels(t *testing.T) {
	p := loadTraces(t, "heap.traces")
	if p.Type != "alloc_space" || p.Total != 0 {
		t.Fatalf("header: type %q total %v", p.Type, p.Total)
	}
	want := []float64{512.05 * 1024, 518.02 * 1024, 517.33 * 1024, 512.06 * 1024, 1.5 * 1024 * 1024}
	if len(p.Samples) != len(want) {
		t.Fatalf("%d samples, want %d", len(p.Samples), len(want))
	}
	for i, v := range want {
		if !near(p.Samples[i].Value, v) {
			t.Errorf("sample %d value %v B, want %v", i, p.Samples[i].Value, v)
		}
		for _, f := range p.Samples[i].Frames {
			if strings.HasSuffix(f, ":") {
				t.Errorf("sample %d has label %q among its frames", i, f)
			}
		}
	}
}

func TestParseTracesRejects(t *testing.T) {
	for name, in := range map[string]string{
		"no header":    "-----------+----\n      10ms   main.main\n",
		"bad unit":     "Type: cpu\n-----------+----\n      10furlongs   main.main\n",
		"value alone":  "Type: cpu\n-----------+----\n      10ms\n",
		"bad number":   "Type: cpu\n-----------+----\n      1.2.3ms   main.main\n",
		"bad total":    "Type: cpu\nDuration: 1s, Total samples = lots\n",
		"empty total":  "Type: cpu\nDuration: 1s, Total samples = \n",
		"unit no size": "Type: cpu\n-----------+----\n      ms   main.main\n",
	} {
		if _, err := parseTraces(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

func TestParseValue(t *testing.T) {
	for in, want := range map[string]float64{
		"10ms": 10, "1.20s": 1200, "250us": 0.25, "500ns": 5e-4, "2.50mins": 150e3,
		"96B": 96, "1.12kB": 1.12 * 1024, "3MB": 3 << 20, "2GB": 2 << 30,
	} {
		got, err := parseValue(in)
		if err != nil || !near(got, want) {
			t.Errorf("parseValue(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}

func TestLayerOfStack(t *testing.T) {
	for _, c := range []struct {
		frames []string
		layers []string
		want   string
	}{
		// The innermost srcsim/internal frame takes the runtime work below it.
		{[]string{"runtime.mapaccess2_fast64", "srcsim/internal/ssd.(*lruCache).Access", "srcsim/internal/cluster.New"}, cpuLayers, "ssd"},
		{[]string{"srcsim/internal/netsim.deliverPkt", "srcsim/internal/sim.(*Engine).execArg"}, cpuLayers, "netsim"},
		// dist, trace and scenario fold into workload.
		{[]string{"math.Exp", "srcsim/internal/dist.(*LogNormal).Sample"}, cpuLayers, "workload"},
		{[]string{"srcsim/internal/trace.(*Trace).Filter"}, allocLayers, "workload"},
		{[]string{"srcsim/internal/scenario.(*Spec).Compile"}, cpuLayers, "workload"},
		// Packages that are no listed layer count as other.
		{[]string{"srcsim/internal/obs.(*Registry).Counter", "srcsim/internal/netsim.deliverPkt"}, cpuLayers, "other"},
		{[]string{"srcsim/internal/sweep/pool.Pool.ForEach.func1", "srcsim/internal/devrun.CollectSamples"}, cpuLayers, "other"},
		{[]string{"srcsim/internal/dcqcn.NewNP"}, allocLayers, "other"},
		// Stacks outside srcsim: GC workers, then everything else.
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, cpuLayers, "gc"},
		{[]string{"runtime.madvise", "runtime.bgscavenge"}, cpuLayers, "other"},
		{[]string{"encoding/json.Marshal", "main.digestHash"}, cpuLayers, "other"},
	} {
		if got := layerOfStack(c.frames, c.layers); got != c.want {
			t.Errorf("layerOfStack(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestByLayerAccountsForEverySample(t *testing.T) {
	cpu := byLayer(loadTraces(t, "cpu.traces"), cpuLayers)
	want := map[string]float64{"ssd": 370, "other": 30, "gc": 10, "sim": 10, "netsim": 1200, "workload": 30}
	var sum float64
	for _, l := range cpuLayers {
		v, ok := cpu[l]
		if !ok {
			t.Errorf("layer %s missing", l)
		}
		if v != want[l] {
			t.Errorf("cpu %s = %v ms, want %v", l, v, want[l])
		}
		sum += v
	}
	if sum != 1650 || len(cpu) != len(cpuLayers) {
		t.Errorf("layers sum to %v ms over %d layers, want 1650 over %d", sum, len(cpu), len(cpuLayers))
	}

	// "gc" is no allocation layer, and dcqcn's bytes fall to other.
	heap := byLayer(loadTraces(t, "heap.traces"), allocLayers)
	if len(heap) != len(allocLayers) || !near(heap["other"], (512.05+512.06)*1024) || !near(heap["ssd"], 1.5*1024*1024) {
		t.Errorf("heap by layer %v", heap)
	}
}
