package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"srcsim/internal/trace"
)

const (
	// minIters is the fewest timed iterations a child runs, whatever its
	// time budget.
	minIters = 3
	// setupProbes is how many standalone device set-ups a probing child
	// times after its loop: three rounds of tpm-train's 16 grid points.
	setupProbes = 48
)

// childOptions tell one child process what to measure.
type childOptions struct {
	Workload string
	Seed     uint64
	Seconds  float64
	// Profile takes CPU and heap profiles (written to ProfDir) and
	// counts engine callbacks by site in the warm-up.
	Profile bool
	ProfDir string
	// Probe times setupProbes standalone device set-ups after the loop,
	// each as an iteration of its own.
	Probe bool
}

// childReport is what a child process prints on its standard output.
type childReport struct {
	Label string
	// Iters are the timed iterations that passed every check; the
	// warm-up (iteration 0) is not among them.
	Iters []iterSample
	// TotalIters counts every iteration run, warm-up included.
	TotalIters int
	// Probes are the iteration numbers of the set-up probes.
	Probes    []int
	Attempted int
	Failed    int
	Errors    []string
	Spans     []span
	// Digest, Model, Events, SimEvents and HeapHW come from the first
	// iteration that passed; Digest is compared with every other.
	Digest    string
	Model     map[string]float64
	Events    map[string]float64
	SimEvents float64
	HeapHW    float64
	// Cal holds the calibration kernel runs, with the resident set read
	// after each, from the end of the warm-up on; a profiled child runs
	// none.
	Cal []calRun
}

// iterSample is one timed iteration's host cost.
type iterSample struct {
	Iter       int
	Wall       float64 // s
	CPU        float64 // s, process user plus system
	AllocBytes float64
	Mallocs    float64
	NsPerEvent float64 // event-loop host ns per simulated event; 0 without a cluster
}

// runChild runs one workload's closed loop: an untimed warm-up, then one
// iteration after another until the time budget would be exceeded (and
// at least minIters). There is no forced GC between iterations; memory
// figures are deltas of the runtime's cumulative counters.
func runChild(o childOptions, stdin io.Reader, stdout io.Writer) error {
	w, ok := lookupWorkload(o.Workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.Workload)
	}
	// One P: the workload, its collections and the calibration kernel
	// share one thread. On the 2-vCPU host the bounds were set on, two busy
	// threads each ran up to three times slower than one alone, by how
	// much varying with the host's load, so a second P measured the host
	// more than the program. tpm-train's worker pool has one worker here.
	runtime.GOMAXPROCS(1)
	tpmBytes, err := io.ReadAll(stdin)
	if err != nil {
		return fmt.Errorf("reading the TPM from stdin: %w", err)
	}
	if w.input != nil && len(tpmBytes) == 0 {
		return fmt.Errorf("workload %s needs a serialized TPM on stdin", w.Name)
	}
	golden, err := loadGolden()
	if err != nil {
		return err
	}
	want := ""
	if o.Seed == golden.Seed {
		if want = golden.SHA256[w.Name]; want == "" {
			return fmt.Errorf("golden.json has no digest for %s", w.Name)
		}
	}

	rep := &childReport{}
	rec := newRecorder()
	fail := func(err error) {
		rep.Failed++
		if len(rep.Errors) < 5 {
			rep.Errors = append(rep.Errors, fmt.Sprintf("iteration %d: %v", rec.iter, err))
		}
	}
	// one runs and checks an iteration; it reports false when the
	// iteration failed.
	one := func() (iterSample, bool) {
		rep.Attempted++
		rep.TotalIters++
		var ms0, ms1 runtime.MemStats
		var ru0, ru1 syscall.Rusage
		runtime.ReadMemStats(&ms0)
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // cannot fail for RUSAGE_SELF
		start := time.Now()
		// Callbacks are counted by site in the warm-up only: the counts
		// are deterministic, and per-event timing would distort the CPU
		// profile of the timed iterations.
		out, err := iterate(w, o.Seed, tpmBytes, o.Profile && rec.iter == 0, rec)
		end := time.Now()
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
		runtime.ReadMemStats(&ms1)
		rec.add("iteration", "", start, end)
		s := iterSample{
			Iter:       rec.iter,
			Wall:       end.Sub(start).Seconds(),
			CPU:        cpuSeconds(&ru1) - cpuSeconds(&ru0),
			AllocBytes: float64(ms1.TotalAlloc - ms0.TotalAlloc),
			Mallocs:    float64(ms1.Mallocs - ms0.Mallocs),
		}
		if err != nil {
			fail(err)
			return s, false
		}
		ck, err := check(out)
		switch {
		case err != nil:
		case want != "" && ck.digest != want:
			err = fmt.Errorf("digest %s, golden.json has %s", ck.digest, want)
		case rep.Digest != "" && ck.digest != rep.Digest:
			err = fmt.Errorf("digest %s differs from the first iteration's %s", ck.digest, rep.Digest)
		}
		if err != nil {
			fail(err)
			return s, false
		}
		if rep.Digest == "" {
			rep.Digest, rep.Model, rep.Events = ck.digest, ck.model, ck.events
			rep.SimEvents, rep.HeapHW = ck.simEvents, ck.heapHW
		}
		if ck.simEvents > 0 {
			s.NsPerEvent = float64(ck.loop.Nanoseconds()) / ck.simEvents
		}
		return s, true
	}

	one() // warm-up
	var cpuProf *os.File
	if o.Profile {
		if cpuProf, err = os.Create(filepath.Join(o.ProfDir, "cpu.prof")); err != nil {
			return err
		}
		defer cpuProf.Close()
		if err := pprof.StartCPUProfile(cpuProf); err != nil {
			return err
		}
	}
	// The profiled child runs no sampler: the kernel would show in its
	// profile.
	var smp *sampler
	if !o.Profile {
		smp = startSampler(rec.t0)
		defer smp.Stop()
	}
	start := time.Now()
	var last float64
	for n := 1; n <= minIters || time.Since(start).Seconds()+last <= o.Seconds; n++ {
		rec.iter = n
		t0 := time.Now()
		if s, ok := one(); ok {
			rep.Iters = append(rep.Iters, s)
		}
		last = time.Since(t0).Seconds()
	}
	if o.Profile {
		pprof.StopCPUProfile()
		if err := cpuProf.Close(); err != nil {
			return err
		}
		// The allocation profile is as of the last completed GC.
		runtime.GC()
		if err := writeProfile(filepath.Join(o.ProfDir, "allocs.prof"), "allocs"); err != nil {
			return err
		}
	}
	if o.Probe {
		var tr *trace.Trace
		if w.input != nil {
			if _, tr, err = w.input(o.Seed); err != nil {
				return err
			}
		}
		for k := 0; k < setupProbes; k++ {
			rec.iter++
			rep.Probes = append(rep.Probes, rec.iter)
			// No collection is forced between probes, as none is between
			// the training simulations they stand for. A forced one let
			// the runtime hand the freed pages back to the OS or not, so
			// probes paid for page faults in some runs and not in others:
			// their median read 14 or 26 ms for the same input.
			if err := setupProbe(o.Seed, k, tr, rec); err != nil {
				return fmt.Errorf("set-up probe: %w", err)
			}
		}
	}
	rep.Spans = rec.spans
	if smp != nil {
		if rep.Cal, err = smp.Stop(); err != nil {
			return fmt.Errorf("host sampler: %w", err)
		}
	}
	return json.NewEncoder(stdout).Encode(rep)
}

func cpuSeconds(ru *syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func writeProfile(path, name string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
