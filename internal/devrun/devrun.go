// Package devrun drives a single simulated SSD (no network) with a
// workload trace — the setup behind the paper's Fig. 5 weight-ratio
// sweeps and the training-sample collection for the throughput
// prediction model (Sec. III-B).
package devrun

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"srcsim/internal/core"
	"srcsim/internal/guard"
	"srcsim/internal/nvme"
	"srcsim/internal/sim"
	"srcsim/internal/ssd"
	"srcsim/internal/stats"
	"srcsim/internal/sweep/cache"
	"srcsim/internal/sweep/pool"
	"srcsim/internal/trace"
	"srcsim/internal/workload"
)

// Result reports a device run's steady-state throughput.
type Result struct {
	// ReadGbps and WriteGbps are trimmed steady-state completion rates
	// (first/last 10% of the active period removed).
	ReadGbps, WriteGbps float64
	// IOPS by direction over the whole run.
	ReadIOPS, WriteIOPS float64
	Duration            sim.Time
	Completed           int
	CMTHitRate          float64
	// Per-direction device latency (submission to completion),
	// milliseconds. Under overload this is dominated by SQ queueing.
	ReadLatency, WriteLatency stats.Histogram
}

// Run replays tr open-loop into a fresh device with the SSQ at weight
// ratio (1, w) and measures completion throughput. Throughput is
// measured over the trimmed arrival window ([10%, 90%] of the trace
// span): for overloaded workloads this is the period with both queues
// backlogged (the WRR-effective regime of Fig. 5); the post-arrival
// drain is excluded. The device's CMT is preconditioned for the trace's
// address footprint (MQSim-style preconditioning).
func Run(cfg ssd.Config, tr *trace.Trace, w int) (*Result, error) {
	if w < 1 {
		return nil, fmt.Errorf("devrun: weight ratio %d < 1", w)
	}
	if tr.Len() == 0 {
		return nil, fmt.Errorf("devrun: empty trace")
	}
	eng := sim.NewEngine()
	ssq := nvme.NewSSQ(1, w)
	dev, err := ssd.New(eng, cfg, ssq)
	if err != nil {
		return nil, err
	}
	var span uint64
	for _, r := range tr.Requests {
		if r.End() > span {
			span = r.End()
		}
	}
	dev.Precondition(span)

	bucket := sim.Millisecond
	readBits := stats.NewTimeSeries(bucket)
	writeBits := stats.NewTimeSeries(bucket)
	completed := 0
	res := &Result{}
	dev.OnComplete = func(c *nvme.Command) {
		completed++
		latMs := (eng.Now() - c.Submitted).Millis()
		if c.Op == trace.Read {
			readBits.Add(eng.Now(), float64(c.Size)*8)
			res.ReadLatency.Add(latMs)
		} else {
			writeBits.Add(eng.Now(), float64(c.Size)*8)
			res.WriteLatency.Add(latMs)
		}
	}
	for _, r := range tr.Requests {
		r := r
		eng.Schedule(r.Arrival, func() {
			ssq.Submit(&nvme.Command{ID: r.ID, Op: r.Op, LBA: r.LBA, Size: r.Size, Submitted: r.Arrival})
			dev.Kick()
		})
	}
	// Conservation audit through the engine's interrupt hook (a ticker
	// would keep RunUntilIdle from ever draining). Interrupts run between
	// callbacks and schedule nothing, so the run itself is unperturbed.
	var auditErr error
	eng.SetInterrupt(4096, func() {
		if auditErr != nil {
			return
		}
		if vs := guard.Audit(ssq, dev); len(vs) > 0 {
			auditErr = &guard.ViolationError{At: eng.Now(), Violations: vs}
			eng.Stop()
		}
	})
	eng.RunUntilIdle()
	eng.SetInterrupt(0, nil)
	if auditErr == nil {
		// Drain audit: all queues empty, every page accounted for.
		if vs := guard.Audit(ssq, dev); len(vs) > 0 {
			auditErr = &guard.ViolationError{At: eng.Now(), Violations: vs}
		}
	}
	if auditErr != nil {
		return nil, auditErr
	}

	res.Duration = eng.Now()
	res.Completed = completed
	res.CMTHitRate = dev.CMTHitRate()
	// Rate over the trimmed arrival window.
	span10 := tr.Duration() / 10
	lo := int(span10 / bucket)
	hi := int((tr.Duration() - span10) / bucket)
	mean := func(ts *stats.TimeSeries) float64 {
		rates := ts.Rate()
		if hi > len(rates) {
			hi = len(rates)
		}
		if lo >= hi {
			return stats.Mean(rates) / 1e9
		}
		return stats.Mean(rates[lo:hi]) / 1e9
	}
	res.ReadGbps = mean(readBits)
	res.WriteGbps = mean(writeBits)
	if d := eng.Now().Seconds(); d > 0 {
		res.ReadIOPS = float64(dev.CompletedReads) / d
		res.WriteIOPS = float64(dev.CompletedWrites) / d
	}
	return res, nil
}

// WorkloadSpec is one point of the training grid: a micro workload with
// the given inter-arrival and size means. The write-side fields default
// to the read-side values (the symmetric Fig. 5 sweep); set them for
// asymmetric (VDI-like) grid points.
type WorkloadSpec struct {
	InterArrival sim.Time
	MeanSize     int
	Count        int // requests per direction
	Seed         uint64

	WriteInterArrival sim.Time // 0 = InterArrival
	WriteMeanSize     int      // 0 = MeanSize
	WriteCount        int      // 0 = Count
}

// Trace materialises the spec.
func (ws WorkloadSpec) Trace() (*trace.Trace, error) {
	wia, wsz, wc := ws.WriteInterArrival, ws.WriteMeanSize, ws.WriteCount
	if wia == 0 {
		wia = ws.InterArrival
	}
	if wsz == 0 {
		wsz = ws.MeanSize
	}
	if wc == 0 {
		wc = ws.Count
	}
	return workload.Micro(workload.MicroConfig{
		Seed:      ws.Seed,
		ReadCount: ws.Count, WriteCount: wc,
		ReadInterArrival: ws.InterArrival, WriteInterArrival: wia,
		ReadMeanSize: ws.MeanSize, WriteMeanSize: wsz,
		AddressSpace: 2 << 30,
	})
}

// CollectSamples measures (Ch, w) -> throughput over n workloads ×
// weight ratios, in parallel across GOMAXPROCS workers. traceOf(i)
// returns workload i's trace and is called once per job, so a generator
// builds each trace inside its job instead of holding every workload's
// trace at once. Each sample's features come from the realised trace,
// so the TPM sees exactly what the workload monitor would report. group
// labels every produced sample (used for the Table III grouped CV; pass
// 0 otherwise).
func CollectSamples(cfg ssd.Config, n int, traceOf func(i int) (*trace.Trace, error), ws []int, group int) ([]core.Sample, error) {
	samples := make([]core.Sample, n*len(ws))
	err := pool.Pool{}.ForEach(len(samples), func(ji int) error {
		w := ws[ji%len(ws)]
		tr, err := traceOf(ji / len(ws))
		if err != nil {
			return err
		}
		res, err := Run(cfg, tr, w)
		if err != nil {
			return err
		}
		samples[ji] = core.Sample{
			Ch: core.FeatureVector(trace.Extract(tr)), W: float64(w),
			TputR: res.ReadGbps * 1e9,
			TputW: res.WriteGbps * 1e9,
			Group: group,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return samples, nil
}

// DefaultGrid returns the paper's Fig. 5 sweep grid: inter-arrival 10-25
// µs × request size 10-40 KB.
func DefaultGrid(count int, seed uint64) []WorkloadSpec {
	var specs []WorkloadSpec
	for _, ia := range []sim.Time{10 * sim.Microsecond, 15 * sim.Microsecond, 20 * sim.Microsecond, 25 * sim.Microsecond} {
		for _, size := range []int{10 << 10, 20 << 10, 30 << 10, 40 << 10} {
			specs = append(specs, WorkloadSpec{
				InterArrival: ia, MeanSize: size, Count: count,
				Seed: seed ^ uint64(ia)<<8 ^ uint64(size),
			})
		}
	}
	return specs
}

// MinTrainCount returns the per-direction request count needed for a
// meaningful steady-state throughput sample on cfg: the run must
// complete many multiples of the queue-depth window, or the measured mix
// still reflects pre-backlog fetches rather than the WRR ratio.
func MinTrainCount(cfg ssd.Config, count int) int {
	min := 20 * cfg.QueueDepth
	if min < 2000 {
		min = 2000
	}
	if count < min {
		return min
	}
	return count
}

// RandomSpecs draws n workload specs uniformly from the Fig. 5 sweep
// ranges (inter-arrival 8-30 µs, size 8-48 KB), continuously covering
// the space between grid points — the "extensive experiments with
// various workloads" the paper trains on.
func RandomSpecs(n, count int, seed uint64) []WorkloadSpec {
	rng := sim.NewRNG(seed ^ 0xfeed)
	specs := make([]WorkloadSpec, 0, n)
	for i := 0; i < n; i++ {
		specs = append(specs, WorkloadSpec{
			InterArrival: sim.Time(8+rng.Intn(23)) * sim.Microsecond,
			MeanSize:     (8 + rng.Intn(41)) << 10,
			Count:        count,
			Seed:         rng.Uint64(),
		})
	}
	return specs
}

// tpmTrainEpoch versions the whole TPM-training pipeline (grid layout,
// feature extraction, forest hyperparameters, serialized-model layout)
// for cache keys. Bump it whenever a change makes previously trained
// models stale: the content-addressed store never invalidates on its
// own. Epoch 2: serialized forests carry feature importances.
const tpmTrainEpoch = 2

// TPMCacheEnv is the environment knob for the trained-model artifact
// cache used by TrainTPMCached (and through it the test suites):
// unset/empty resolves to a shared directory under os.TempDir();
// "off" or "0" disables caching so every run trains cold (CI's
// cold-run mode); any other value is used as the cache directory.
const TPMCacheEnv = "SRCSIM_TPM_CACHE"

// TPMCacheFromEnv resolves the TPMCacheEnv knob to a cache handle
// (nil when caching is off).
func TPMCacheFromEnv() *cache.Cache {
	switch v := os.Getenv(TPMCacheEnv); v {
	case "":
		return cache.New(filepath.Join(os.TempDir(), "srcsim-cache"))
	case "off", "0":
		return nil
	default:
		return cache.New(v)
	}
}

// tpmKey is the content address of a trained TPM: every input the
// trained model depends on, plus the pipeline epoch and the model
// format version.
func tpmKey(cfg ssd.Config, count int, seed uint64) string {
	return cache.Key("tpm", tpmTrainEpoch, core.NumFeatures, cfg, count, seed)
}

// TrainTPMCached is TrainTPM behind the content-addressed artifact
// cache: a hit deserializes the stored model (training is deterministic,
// so the loaded model predicts identically to a fresh one); a miss
// trains and stores. A nil cache always trains. The training samples
// are not persisted — callers that need them should use TrainTPM.
func TrainTPMCached(c *cache.Cache, cfg ssd.Config, count int, seed uint64) (tpm *core.TPM, hit bool, err error) {
	key := tpmKey(cfg, count, seed)
	if b, ok := c.Get(key); ok {
		if tpm, err := core.LoadTPM(bytes.NewReader(b)); err == nil {
			return tpm, true, nil
		}
		// A corrupt or stale entry falls through to a fresh train, whose
		// Put overwrites it.
	}
	tpm, _, err = TrainTPM(cfg, count, seed)
	if err != nil {
		return nil, false, err
	}
	if err := c.Put(key, tpm.Save); err != nil {
		return nil, false, err
	}
	return tpm, false, nil
}

// TrainTPM collects samples on cfg over the default grid (plus
// asymmetric VDI-like points) and weight ratios 1..8, then fits the
// paper's random-forest TPM. count is raised to MinTrainCount.
func TrainTPM(cfg ssd.Config, count int, seed uint64) (*core.TPM, []core.Sample, error) {
	count = MinTrainCount(cfg, count)
	specs := DefaultGrid(count, seed)
	// Asymmetric grid points cover read-heavy mixes like the VDI trace.
	for _, ia := range []sim.Time{10 * sim.Microsecond, 20 * sim.Microsecond, 30 * sim.Microsecond} {
		specs = append(specs, WorkloadSpec{
			InterArrival: ia, MeanSize: 44 << 10, Count: count,
			WriteInterArrival: 2 * ia, WriteMeanSize: 23 << 10, WriteCount: count / 2,
			Seed: seed ^ 0xa5a5 ^ uint64(ia),
		})
	}
	// Extra-heavy symmetric points extend coverage past the Fig. 5 grid
	// (the dynamic-control experiment drives the device this hard).
	for _, hs := range []WorkloadSpec{
		{InterArrival: 8 * sim.Microsecond, MeanSize: 32 << 10},
		{InterArrival: 6 * sim.Microsecond, MeanSize: 24 << 10},
	} {
		hs.Count = count
		hs.Seed = seed ^ 0x5a5a ^ uint64(hs.InterArrival)
		specs = append(specs, hs)
	}
	samples, err := CollectSamples(cfg, len(specs), func(i int) (*trace.Trace, error) { return specs[i].Trace() },
		[]int{1, 2, 3, 4, 5, 6, 8}, 0)
	if err != nil {
		return nil, nil, err
	}
	tpm := core.NewTPM()
	if err := tpm.Train(samples); err != nil {
		return nil, nil, err
	}
	return tpm, samples, nil
}
