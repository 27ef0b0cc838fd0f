// Command bench is srcsim's benchmark: host time, memory and per-layer
// cost of the simulator on four workloads, with every simulated result
// checked against a golden digest. See README.md.
//
// Usage:
//
//	bash bench/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-spans FILE]
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. Each workload runs in a child
// process (this program re-executed with -child), so peak RSS and
// profiles are per workload.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"

	"srcsim/internal/harness"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

//go:embed golden.json
var goldenJSON []byte

// golden holds, per workload, the SHA-256 of an iteration's digest at
// one seed: both legs' cluster.Digest JSON, or the trained TPM's saved
// bytes for tpm-train.
type golden struct {
	Seed   uint64            `json:"seed"`
	SHA256 map[string]string `json:"sha256"`
}

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: all, "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 7, "seed of the generated inputs (golden.json holds the digests at its seed)")
	seconds := fs.Float64("seconds", defaultSeconds, "measured seconds per workload")
	traceMode := fs.Int("trace", 0, "0 prints the end-to-end metrics; 1 runs the traced measurement and prints the per-layer metrics")
	spansPath := fs.String("spans", "", "write the recorded spans to this file as Chrome trace JSON")
	child := fs.Bool("child", false, "internal: run as a measurement child process")
	var co childOptions
	fs.BoolVar(&co.Profile, "profile", false, "internal (child): take CPU and heap profiles")
	fs.StringVar(&co.ProfDir, "profdir", "", "internal (child): directory for the profiles")
	fs.BoolVar(&co.Probe, "probe", false, "internal (child): time standalone device set-ups after the loop")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *traceMode != 0 && *traceMode != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traceMode)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if *child {
		co.Workload, co.Seed, co.Seconds = *name, *seed, *seconds
		return runChild(co, os.Stdin, stdout)
	}

	var ws []*workload
	if *name == "all" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else if w, ok := lookupWorkload(*name); ok {
		ws = append(ws, w)
	} else {
		return fmt.Errorf("unknown workload %q (want all, %s)", *name, strings.Join(workloadNames(), ", "))
	}

	var tpmBytes []byte
	var children []*childReport
	for _, w := range ws {
		if w.input != nil && tpmBytes == nil {
			var err error
			if tpmBytes, err = trainTPM(); err != nil {
				return err
			}
		}
		res, reps, err := measure(w, *seed, *seconds, *traceMode == 1, tpmBytes, stdout)
		children = append(children, reps...)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if *spansPath != "" {
		return writeChromeTrace(*spansPath, children)
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// trainTPM trains the cluster workloads' congestion TPM once, untimed,
// and serializes it; every cluster iteration then pays core.LoadTPM, as
// a model-cache hit in srcsim does.
func trainTPM() ([]byte, error) {
	tpm, _, err := harness.TrainCongestionTPM(trainCount, 42)
	if err != nil {
		return nil, fmt.Errorf("training the congestion TPM: %w", err)
	}
	var buf bytes.Buffer
	if err := tpm.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// measure runs one workload and reduces its children's reports to the
// result line, printing one line per metric to out first. Untraced, one
// child gives the end-to-end metrics. Traced, an untraced child (with the
// standalone set-up probe) and a profiled child each get half the time;
// the per-layer metrics come from both.
func measure(w *workload, seed uint64, seconds float64, traced bool, tpmBytes []byte, out io.Writer) (*result, []*childReport, error) {
	o := childOptions{Workload: w.Name, Seed: seed, Seconds: seconds, Probe: w.input == nil}
	if !traced {
		rep, err := spawn(o, tpmBytes, "untraced")
		if err != nil {
			return nil, nil, err
		}
		return finish(w, out, endToEnd, endToEndSamples(rep), []*childReport{rep}, nil)
	}

	o.Seconds = seconds / 2
	o.Probe = true
	plain, err := spawn(o, tpmBytes, "untraced")
	if err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp("", "srcbench-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	o.Probe, o.Profile, o.ProfDir = false, true, dir
	prof, err := spawn(o, tpmBytes, "traced")
	if err != nil {
		return nil, []*childReport{plain}, err
	}
	reps := []*childReport{plain, prof}
	cpu, err := pprofTraces(filepath.Join(dir, "cpu.prof"))
	if err != nil {
		return nil, reps, err
	}
	heap, err := pprofTraces(filepath.Join(dir, "allocs.prof"), "-sample_index=alloc_space")
	if err != nil {
		return nil, reps, err
	}
	samples, checkErr := perLayerSamples(plain, prof, cpu, heap)
	if prof.Digest != plain.Digest {
		checkErr = errors.Join(checkErr, fmt.Errorf("profiled child's digest %s differs from the untraced child's %s", prof.Digest, plain.Digest))
	}
	return finish(w, out, perLayer(), samples, reps, checkErr)
}

// finish prints the metrics and the children's failures and builds the
// result line.
func finish(w *workload, out io.Writer, declared []metric, samples map[string][]float64, reps []*childReport, checkErr error) (*result, []*childReport, error) {
	res := &result{Correct: checkErr == nil}
	if checkErr != nil {
		fmt.Fprintf(out, "%s: check failed: %v\n", w.Name, checkErr)
	}
	for _, r := range reps {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for _, e := range r.Errors {
			fmt.Fprintf(out, "%s (%s): %s\n", w.Name, r.Label, e)
		}
	}
	res.Correct = res.Correct && res.Failed == 0
	var err error
	if res.Metrics, err = report(out, w.Name, declared, samples); err != nil {
		return nil, reps, err
	}
	fmt.Fprintf(out, "%s digest %s\n", w.Name, reps[0].Digest)
	if cal := reps[0].Cal; len(cal) > 0 {
		fmt.Fprintf(out, "%s host scale %.6g over the run: %d calibration kernel runs\n",
			w.Name, scaleOf(cal), len(cal))
	}
	return res, reps, nil
}

// spawn re-executes this program as a child for one workload, feeding it
// the serialized TPM, and returns its report.
func spawn(o childOptions, tpmBytes []byte, label string) (*childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", o.Workload, "-seed", fmt.Sprint(o.Seed),
		"-seconds", fmt.Sprint(o.Seconds)}
	if o.Profile {
		args = append(args, "-profile", "-profdir", o.ProfDir)
	}
	if o.Probe {
		args = append(args, "-probe")
	}
	cmd := exec.Command(exe, args...)
	// The child dies with this process, however this process ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdin = bytes.NewReader(tpmBytes)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", label, err)
	}
	var rep childReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("%s child report: %w", label, err)
	}
	rep.Label = label
	return &rep, nil
}

// endToEndSamples collects the untraced child's per-iteration samples,
// with each iteration's times scaled to the reference host speed (see
// calibrate.go). setup_s comes from the iterations that set something up:
// every cluster iteration, and tpm-train's set-up probes.
func endToEndSamples(rep *childReport) map[string][]float64 {
	scale := iterScales(rep)
	s := map[string][]float64{
		"peak_rss_mb": iterPeakRSS(rep),
		"setup_s":     spanTotals(rep, setupSpans, scale),
	}
	for _, it := range rep.Iters {
		k := scale(it.Iter)
		s["wall_s"] = append(s["wall_s"], it.Wall*k)
		s["cpu_s"] = append(s["cpu_s"], it.CPU*k)
		s["alloc_mb"] = append(s["alloc_mb"], it.AllocBytes/1e6)
		s["allocs"] = append(s["allocs"], it.Mallocs)
	}
	return s
}

// iterPeakRSS returns, per timed iteration, the largest resident set the
// sampler read during it, skipping iterations it read none in. The
// median of these is steadier than the process's peak (VmHWM), which one
// late collection in hundreds sets: across ten runs that peak spread
// 0.07 to 0.09 on ckpt-hpcc and tpm-train, this median 0.01 to 0.05.
func iterPeakRSS(rep *childReport) []float64 {
	var out []float64
	for _, it := range rep.Iters {
		for _, s := range rep.Spans {
			if s.Iter != it.Iter || s.Name != "iteration" {
				continue
			}
			peak := 0.0
			for _, r := range rep.Cal {
				if r.T >= s.Start && r.T <= s.End {
					peak = max(peak, r.RSS)
				}
			}
			if peak > 0 {
				out = append(out, peak)
			}
		}
	}
	return out
}

// unscaled is the scale of times reported as measured.
func unscaled(int) float64 { return 1 }

// spanTotals returns, per passed timed iteration and per probe, the
// seconds spent in the named spans times the iteration's scale, skipping
// iterations with none.
func spanTotals(rep *childReport, names []string, scale func(iter int) float64) []float64 {
	sums := spanSums(rep.Spans)
	iters := append([]int(nil), rep.Probes...)
	for _, it := range rep.Iters {
		iters = append(iters, it.Iter)
	}
	var out []float64
	for _, it := range iters {
		total, seen := 0.0, false
		for _, name := range names {
			if d, ok := sums[name][it]; ok {
				total, seen = total+d, true
			}
		}
		if seen {
			out = append(out, total*scale(it))
		}
	}
	return out
}

// perLayerSamples collects the per-layer metrics: spans, engine counters
// and modelled statistics from the untraced child, callback counts and
// the CPU and allocation profiles (pprof -traces) from the profiled one.
// It returns a non-nil error with the samples when the CPU attributed to
// layers does not account for the profile's total.
func perLayerSamples(plain, prof *childReport, cpu, heap *traceProfile) (map[string][]float64, error) {
	if len(plain.Iters) == 0 || len(prof.Iters) == 0 {
		return nil, errors.New("no iteration passed")
	}
	s := map[string][]float64{}
	// A span the workload never makes reads 0.
	for _, name := range spanNames {
		xs := []float64{0}
		if t := spanTotals(plain, []string{name}, unscaled); len(t) > 0 {
			xs = t
		}
		for i := range xs {
			xs[i] *= 1e3
		}
		s[name+"_ms"] = xs
	}
	for _, it := range plain.Iters {
		s["sim.ns_per_event"] = append(s["sim.ns_per_event"], it.NsPerEvent)
	}
	s["sim.events"] = []float64{plain.SimEvents}
	s["sim.heap_high_water"] = []float64{plain.HeapHW}
	for _, sfx := range []string{".base", ".src"} {
		for _, m := range modelled {
			s[m.Name+sfx] = []float64{plain.Model[m.Name+sfx]}
		}
	}
	s["cluster.src_gain_pct"] = []float64{plain.Model["cluster.src_gain_pct"]}
	for _, l := range eventLayers {
		s["events."+l] = []float64{prof.Events[l]}
	}
	walls := func(r *childReport) []float64 {
		var xs []float64
		for _, it := range r.Iters {
			xs = append(xs, it.Wall)
		}
		return xs
	}
	s["trace_overhead"] = []float64{summarize(walls(prof)).Median/summarize(walls(plain)).Median - 1}

	// The CPU profile covers the timed iterations, the allocation profile
	// the whole child, warm-up included.
	var attributed float64
	for l, ms := range byLayer(cpu, cpuLayers) {
		s["cpu_ms."+l] = []float64{ms / float64(prof.TotalIters-1)}
		attributed += ms
	}
	for l, b := range byLayer(heap, allocLayers) {
		s["alloc_mb."+l] = []float64{b / 1e6 / float64(prof.TotalIters)}
	}
	if cpu.Total <= 0 || attributed < 0.9*cpu.Total || attributed > 1.1*cpu.Total {
		return s, fmt.Errorf("CPU attributed to layers %.0f ms, profile total %.0f ms", attributed, cpu.Total)
	}
	return s, nil
}
