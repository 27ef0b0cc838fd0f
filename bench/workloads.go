package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"srcsim/internal/cluster"
	"srcsim/internal/core"
	"srcsim/internal/devrun"
	"srcsim/internal/harness"
	"srcsim/internal/netsim"
	"srcsim/internal/nvme"
	"srcsim/internal/scenario"
	"srcsim/internal/sim"
	"srcsim/internal/ssd"
	"srcsim/internal/trace"
)

// trainCount is the per-direction request count of every TPM training
// run here: the parent's model for the cluster workloads and each
// tpm-train iteration (TrainTPM raises it to its minimum of 2000).
const trainCount = 1000

// workload is one benchmark input set. A cluster workload generates one
// trace per iteration and runs it under DCQCN-only, then DCQCN-SRC, on
// the Sec. IV-D testbed; tpm-train (input nil) trains the congestion TPM
// cold.
type workload struct {
	Name string
	Why  string
	// input builds the iteration's shared cluster spec and trace.
	input func(seed uint64) (cluster.Spec, *trace.Trace, error)
}

// workloads are the benchmark's workloads in run order. Each stresses a
// different part of the stack; see README.md for the layer each one
// exposes.
var workloads = []workload{
	{
		Name:  "fig7-short",
		Why:   "Fig. 7 VDI trace, 2,400 requests under DCQCN: device setup (ssd.New, preconditioning) is over half of each iteration",
		input: vdiInput(800),
	},
	{
		Name:  "fig7-long",
		Why:   "the same testbed at 24,000 requests: the event loop (sim, netsim, dcqcn, nvmeof, nvme, core) is about 85% of the time",
		input: vdiInput(8000),
	},
	{
		Name:  "ckpt-hpcc",
		Why:   "ai-checkpoint-burst scenario, 12,000 requests under HPCC: the write path and INT telemetry that fig7 bypasses",
		input: checkpointInput(4800),
	},
	{
		Name: "tpm-train",
		Why:  "cold congestion-TPM training: 133 single-device simulations and the forest fit on one core, paid on every cache miss",
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// vdiInput is the Fig. 7 experiment's input (harness.Fig7Throughput):
// the VDI trace on the DCQCN congestion testbed.
func vdiInput(perDir int) func(uint64) (cluster.Spec, *trace.Trace, error) {
	return func(seed uint64) (cluster.Spec, *trace.Trace, error) {
		tr, err := harness.VDITrace(seed, perDir)
		return harness.CongestionSpec(), tr, err
	}
}

// checkpointInput is the scenario experiment's input (harness.RunScenario)
// for ai-checkpoint-burst under HPCC, compiled fault schedule included.
func checkpointInput(requests int) func(uint64) (cluster.Spec, *trace.Trace, error) {
	return func(seed uint64) (cluster.Spec, *trace.Trace, error) {
		sc, ok := scenario.Lookup("ai-checkpoint-burst")
		if !ok {
			return cluster.Spec{}, nil, fmt.Errorf("scenario ai-checkpoint-burst not in the library")
		}
		comp, err := sc.Build(seed, requests).Compile(seed)
		if err != nil {
			return cluster.Spec{}, nil, err
		}
		spec := harness.CongestionSpec()
		spec.Net.CC = netsim.CCHPCC
		spec.Faults = comp.Faults
		return spec, comp.Trace, nil
	}
}

// leg is what one cluster run leaves for checking once the measured
// window has closed; the cluster itself is dropped as soon as it has run,
// as cluster.CompareModes does.
type leg struct {
	res    *cluster.Result
	events uint64
	heapHW int
	sites  []sim.SiteStat
	loop   time.Duration

	peakParked int
	cmtHit     float64
	gcColls    uint64
}

// outcome is one iteration's product: two legs for a cluster workload,
// a trained model for tpm-train.
type outcome struct {
	legs []leg
	tpm  *core.TPM
}

// iterate runs one iteration of w, recording its spans.
func iterate(w *workload, seed uint64, tpmBytes []byte, profile bool, rec *recorder) (*outcome, error) {
	if w.input == nil {
		start := time.Now()
		tpm, _, err := harness.TrainCongestionTPM(trainCount, seed)
		rec.add("harness.train", "iteration", start, time.Now())
		if err != nil {
			return nil, err
		}
		return &outcome{tpm: tpm}, nil
	}

	start := time.Now()
	spec, tr, err := w.input(seed)
	rec.add("workload.gen", "iteration", start, time.Now())
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	for _, mode := range []cluster.Mode{cluster.DCQCNOnly, cluster.DCQCNSRC} {
		l, err := runLeg(spec, mode, tr, tpmBytes, profile, rec)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", mode, err)
		}
		out.legs = append(out.legs, l)
	}
	return out, nil
}

// runLeg builds and runs one cluster the way cluster.CompareModes does,
// plus a no-op event at t=0 that marks the end of setup: the time to it
// inside Run is preconditioning and request scheduling, the time after it
// is the event loop.
func runLeg(spec cluster.Spec, mode cluster.Mode, tr *trace.Trace, tpmBytes []byte, profile bool, rec *recorder) (leg, error) {
	name := legName(mode)
	legStart := time.Now()
	spec.Mode = mode
	if mode == cluster.DCQCNSRC {
		start := time.Now()
		tpm, err := core.LoadTPM(bytes.NewReader(tpmBytes))
		rec.add("core.tpm_load", name, start, time.Now())
		if err != nil {
			return leg{}, err
		}
		spec.TPM = tpm
	}
	start := time.Now()
	c, err := cluster.New(spec)
	rec.add("cluster.new", name, start, time.Now())
	if err != nil {
		return leg{}, err
	}
	if profile {
		c.Eng.EnableProfiling()
	}
	var first time.Time
	c.Eng.Schedule(0, func() { first = time.Now() })
	start = time.Now()
	res, err := c.Run(tr, nil)
	end := time.Now()
	if err != nil {
		return leg{}, err
	}
	if first.IsZero() {
		return leg{}, fmt.Errorf("the t=0 probe event never ran")
	}
	rec.add("cluster.first_event", name, start, first)
	rec.add("sim.loop", name, first, end)
	rec.add(name, "iteration", legStart, end)

	l := leg{res: res, events: c.Eng.Processed, heapHW: c.Eng.HeapHighWater(), loop: end.Sub(first)}
	if profile {
		l.sites = c.Eng.ProfileStats().Sites
	}
	var devs int
	for _, t := range c.Targets {
		for _, d := range t.Devs {
			devs++
			l.peakParked = max(l.peakParked, d.PeakParked)
			l.cmtHit += d.CMTHitRate()
			colls, _, _ := d.GCStats()
			l.gcColls += colls
		}
	}
	l.cmtHit /= float64(devs)
	return l, nil
}

func legName(mode cluster.Mode) string {
	if mode == cluster.DCQCNSRC {
		return "src"
	}
	return "base"
}

// checked is an outcome reduced to what the benchmark reports and
// compares: the digest hash, the modelled statistics and the engine
// counters.
type checked struct {
	digest    string
	model     map[string]float64
	events    map[string]float64
	simEvents float64
	heapHW    float64
	loop      time.Duration
}

// check verifies one outcome and reduces it. A cluster leg fails when it
// lost or truncated requests; the digest is the SHA-256 of the legs'
// cluster.Digest JSON, or of the trained model's saved bytes.
func check(o *outcome) (*checked, error) {
	if o.tpm != nil {
		var buf bytes.Buffer
		if err := o.tpm.Save(&buf); err != nil {
			return nil, err
		}
		sum := sha256.Sum256(buf.Bytes())
		return &checked{digest: hex.EncodeToString(sum[:])}, nil
	}
	ck := &checked{model: map[string]float64{}, events: map[string]float64{}}
	digests := make([]cluster.Digest, 0, len(o.legs))
	for _, l := range o.legs {
		r := l.res
		if r.Completed+r.Failed != r.Submitted {
			return nil, fmt.Errorf("%v: completed %d + failed %d != submitted %d", r.Mode, r.Completed, r.Failed, r.Submitted)
		}
		if r.Truncated {
			return nil, fmt.Errorf("%v: truncated: %s", r.Mode, r.TruncateReason)
		}
		digests = append(digests, r.Digest())
		sfx := "." + legName(r.Mode)
		ck.model["cluster.agg_gbps"+sfx] = r.AggregatedGbps
		ck.model["netsim.cnps"+sfx] = float64(r.TotalCNPs)
		ck.model["netsim.pfc_pauses"+sfx] = float64(r.TotalPFCPauses)
		ck.model["core.weight_events"+sfx] = float64(len(r.WeightEvents))
		ck.model["ssd.peak_parked"+sfx] = float64(l.peakParked)
		ck.model["ssd.cmt_hit_rate"+sfx] = l.cmtHit
		ck.model["ssd.gc_collections"+sfx] = float64(l.gcColls)
		ck.simEvents += float64(l.events)
		ck.heapHW = max(ck.heapHW, float64(l.heapHW))
		ck.loop += l.loop
		for _, s := range l.sites {
			ck.events[layerOfFunc(s.Name, eventLayers)] += float64(s.Count)
		}
	}
	if base := o.legs[0].res.AggregatedGbps; base > 0 {
		ck.model["cluster.src_gain_pct"] = (o.legs[1].res.AggregatedGbps/base - 1) * 100
	}
	h, err := digestHash(digests...)
	if err != nil {
		return nil, err
	}
	ck.digest = h
	return ck, nil
}

// digestHash is the SHA-256 of the digests' JSON encoding.
func digestHash(ds ...cluster.Digest) (string, error) {
	b, err := json.Marshal(ds)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// setupProbe times, outside the measured iterations, the set-up one
// simulated device pays before its first event: generating its trace
// (tpm-train only; a cluster workload passes its own trace), ssd.New and
// Precondition over the trace's span. For tpm-train, probe k sets up the
// training simulation of grid point k, so the probes cover the grid.
func setupProbe(seed uint64, k int, tr *trace.Trace, rec *recorder) error {
	cfg := harness.CongestionSpec().SSD
	if tr == nil {
		grid := devrun.DefaultGrid(devrun.MinTrainCount(cfg, trainCount), seed)
		spec := grid[k%len(grid)]
		start := time.Now()
		var err error
		tr, err = spec.Trace()
		rec.add("workload.gen", "probe", start, time.Now())
		if err != nil {
			return err
		}
	}
	var span uint64
	for _, r := range tr.Requests {
		span = max(span, r.End())
	}
	start := time.Now()
	dev, err := ssd.New(sim.NewEngine(), cfg, nvme.NewSSQ(1, 1))
	rec.add("ssd.new", "probe", start, time.Now())
	if err != nil {
		return err
	}
	start = time.Now()
	dev.Precondition(span)
	rec.add("ssd.precondition", "probe", start, time.Now())
	return nil
}
