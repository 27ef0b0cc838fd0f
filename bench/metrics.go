package main

import (
	"fmt"
	"io"
	"sort"
)

const (
	lower  = "lower"
	higher = "higher"
)

// metric declares one reported number. Bound, for end-to-end metrics
// only, is the share of the parent commit's median by which the metric
// may worsen before a change counts as a regression. BENCHMARK.json
// declares the same metrics (checked by TestBenchmarkJSONMatches).
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics of the untraced run, per iteration unless
// noted. The bounds are set from the spread measured across seeds (see
// README.md); setup_s, the noisiest, has the largest.
var endToEnd = []metric{
	{Name: "wall_s", Unit: "s", Better: lower, Bound: 0.24},
	// Set-up up to each simulation's first event, summed over the
	// iteration's cluster runs; for tpm-train, one training simulation's.
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	// Process user plus system time.
	{Name: "cpu_s", Unit: "s", Better: lower, Bound: 0.24},
	{Name: "alloc_mb", Unit: "MB", Better: lower, Bound: 0.05},
	{Name: "allocs", Unit: "count", Better: lower, Bound: 0.10},
	// The child process's peak resident set, one value per run.
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.20},
}

// Layers of the per-layer metrics, named after srcsim/internal packages
// (see pkgLayer for the packages folded into workload). A package not
// listed counts as other. A layer a workload does not exercise reads 0
// there.
var (
	cpuLayers = []string{"sim", "netsim", "dcqcn", "hpcc", "nvmeof", "nvme", "ssd", "core",
		"ml", "devrun", "workload", "cluster", "gc", "other"}
	allocLayers = []string{"ssd", "netsim", "hpcc", "nvmeof", "sim", "core", "ml", "devrun",
		"workload", "cluster", "other"}
	// eventLayers are the packages whose functions the engine calls back;
	// hpcc, nvmeof, nvme and core run inside those callbacks.
	eventLayers = []string{"sim", "netsim", "dcqcn", "ssd", "cluster", "other"}
)

// spanNames are the spans timed around public calls; each is reported as
// <name>_ms per iteration.
var spanNames = []string{"workload.gen", "core.tpm_load", "ssd.new", "ssd.precondition",
	"cluster.new", "cluster.first_event", "sim.loop", "harness.train"}

// setupSpans are the spans that make up setup_s.
var setupSpans = []string{"workload.gen", "core.tpm_load", "cluster.new", "cluster.first_event",
	"ssd.new", "ssd.precondition"}

// modelled are the simulated statistics reported per leg (suffix .base
// for DCQCN-only, .src for DCQCN-SRC). They are deterministic: a change
// that only speeds up the simulator leaves them identical.
var modelled = []metric{
	{Name: "cluster.agg_gbps", Unit: "Gbps", Better: higher},
	{Name: "netsim.cnps", Unit: "count", Better: lower},
	{Name: "netsim.pfc_pauses", Unit: "count", Better: lower},
	{Name: "core.weight_events", Unit: "count", Better: lower},
	{Name: "ssd.peak_parked", Unit: "count", Better: lower},
	{Name: "ssd.cmt_hit_rate", Unit: "ratio", Better: higher},
	{Name: "ssd.gc_collections", Unit: "count", Better: lower},
}

// perLayer lists every metric of the traced run.
func perLayer() []metric {
	var ms []metric
	for _, s := range spanNames {
		ms = append(ms, metric{Name: s + "_ms", Unit: "ms", Better: lower})
	}
	for _, l := range cpuLayers {
		ms = append(ms, metric{Name: "cpu_ms." + l, Unit: "ms", Better: lower})
	}
	for _, l := range allocLayers {
		ms = append(ms, metric{Name: "alloc_mb." + l, Unit: "MB", Better: lower})
	}
	for _, l := range eventLayers {
		ms = append(ms, metric{Name: "events." + l, Unit: "count", Better: lower})
	}
	ms = append(ms,
		metric{Name: "sim.events", Unit: "count", Better: lower},
		metric{Name: "sim.heap_high_water", Unit: "count", Better: lower},
		metric{Name: "sim.ns_per_event", Unit: "ns", Better: lower},
	)
	for _, sfx := range []string{".base", ".src"} {
		for _, m := range modelled {
			m.Name += sfx
			ms = append(ms, m)
		}
	}
	return append(ms,
		metric{Name: "cluster.src_gain_pct", Unit: "%", Better: higher},
		metric{Name: "trace_overhead", Unit: "ratio", Better: lower},
	)
}

// summary is a metric's samples reduced to the figures reported.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// summarize returns the median and quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func summarize(xs []float64) summary {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{Median: d[0], Q1: d[0], Q3: d[0], N: 1}
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return summary{Median: q(2), Q1: q(1), Q3: q(3), N: n}
}

// valueUnit is one metric in the result line.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// report reduces samples to the declared metrics, printing one line per
// metric (median, quartiles, sample count, unit) to w. Every declared
// metric must have samples and every sampled name must be declared.
func report(w io.Writer, workload string, declared []metric, samples map[string][]float64) (map[string]valueUnit, error) {
	out := make(map[string]valueUnit, len(declared))
	for _, m := range declared {
		xs, ok := samples[m.Name]
		if !ok || len(xs) == 0 {
			return nil, fmt.Errorf("metric %s has no samples", m.Name)
		}
		s := summarize(xs)
		fmt.Fprintf(w, "%-11s %-28s median %-14.6g q1 %-14.6g q3 %-14.6g n %-4d %s\n",
			workload, m.Name, s.Median, s.Q1, s.Q3, s.N, m.Unit)
		out[m.Name] = valueUnit{Value: s.Median, Unit: m.Unit}
	}
	if len(out) != len(samples) {
		for name := range samples {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return out, nil
}
