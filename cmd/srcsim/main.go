// Command srcsim is the one front end of the simulator. It runs the
// integrated DCQCN-only versus DCQCN-SRC experiments of the paper's
// evaluation, generates and inspects workload traces, runs experiment
// campaigns and compares their metrics. Experiments come from the
// registry in internal/harness; `srcsim -list` enumerates them with
// their tunable parameters and defaults.
//
// Usage:
//
//	srcsim -list                    (enumerate registered experiments)
//	srcsim -list-cc                 (enumerate congestion-control schemes)
//	srcsim -experiment fig7 [-requests 2000] [-seed 7] [-train 1500] [-cc hpcc]
//	srcsim -experiment fig5 [-weights 1,2,3] [-count 500] [-ssd B]
//	srcsim -experiment fig9 [-events 60:6,100:3] (trains its own SSD-B model)
//	srcsim -experiment table1 | table3 [-traces 16] | importance
//	srcsim -experiment cc-matrix    (CC scheme x SRC on/off retention matrix)
//	srcsim -experiment clos-scale   (the paper's 256-host Clos fabric)
//	srcsim -list-scenarios          (enumerate the composed scenario library)
//	srcsim -scenario vdi-boot-storm (run a library scenario under both modes)
//	srcsim -replay my.csv           (replay a tracegen CSV under both modes)
//	srcsim -replay t.jsonl -format jsonl   (replay an open-format JSONL trace)
//	srcsim -save-tpm tpm.bin        (write the congestion model for -tpm)
//
// Traces (the tracegen experiment; the trace goes to stdout):
//
//	srcsim -experiment tracegen -kind micro -count 5000 -ia 10us -size 32768 > trace.csv
//	srcsim -experiment tracegen -kind synthetic -ia_scv 4 -acf 0.2 -size_scv 2 > bursty.csv
//	srcsim -experiment tracegen -kind vdi -format jsonl > vdi.jsonl
//	srcsim -experiment tracegen -file msr_trace.csv -format msr   (inspect a trace)
//
// Campaigns and metric diffs:
//
//	srcsim -campaign paper.json -out out/ [-resume]
//	srcsim -diff [-rel 0.01] [-json] A B
//
// Every parameter an experiment declares (see -list) is a string flag
// of the same name; an explicitly set flag overrides the chosen
// experiment's default and is ignored by experiments that do not declare
// it. -seed and -train also seed and size the shared congestion model.
// -scenario X is shorthand for -experiment scenario -name X (or -file X
// for a path), and -replay F for -experiment replay -file F. -json
// prints the experiment's machine-readable data instead of its text.
//
// Experiments that need the trained congestion throughput-prediction
// model train it lazily (or load -tpm); training results are reused
// across runs through the content-addressed artifact cache
// (SRCSIM_TPM_CACHE=off disables, SRCSIM_TPM_CACHE=<dir> relocates;
// default is <tmp>/srcsim-cache).
//
// A campaign spec (see internal/sweep and EXPERIMENTS.md) names
// registered experiments with parameter grids; -campaign expands it
// into jobs, runs them on GOMAXPROCS workers (or the spec's "workers")
// and writes under -out: manifest.json (crash-safe checkpoint),
// jobs/<id>.json, report.txt, aggregate.json, metrics.json (the merged
// cross-job metrics snapshot) and progress.jsonl (the run-local
// job-transition log). Finished jobs and trained models share the
// SRCSIM_TPM_CACHE artifact cache, so re-running an unchanged campaign
// is all cache hits and reproduces the outputs byte for byte. -resume
// continues a stopped campaign in -out with a byte-identical final
// report.
//
// -diff compares two metric sources, each a metrics.json snapshot
// (srcsim -metrics, campaign output) or a campaign output directory.
// Counters and gauges compare directly, histograms per digest field; a
// series present on one side only always breaches. -rel tolerates that
// much relative drift; -json prints the whole diff.
//
// Observability (any cluster experiment):
//
//	-metrics out.json         write a metrics-registry snapshot
//	-trace out.trace.json     write a Chrome trace (chrome://tracing, Perfetto)
//	-record out.csv           flight recorder: sample every counter/gauge and
//	                          the per-flow/per-target congestion signals on
//	                          the sim clock; .csv long format, .jsonl columnar,
//	                          any other extension Chrome-trace counter events
//	-record-interval 100us    flight-recorder sample period (sim time)
//	-record-cap 16384         ring capacity per recorded series
//	-serve :8080              live inspector: /metrics (Prometheus text),
//	                          /series (recorder JSON), /progress (campaigns)
//	-serve-grace 5s           keep the inspector up after the run (wall time)
//	-progress 100ms           periodic status line on stderr (sim-time interval)
//
// Fault injection & adaptation (any cluster experiment):
//
//	-faults chaos.json        replay a deterministic fault schedule
//	                          (see internal/faults and EXPERIMENTS.md)
//	-adapt                    arm adaptive SRC (in-run retraining +
//	                          degradation ladder; see DESIGN.md); the
//	                          adapt-aging/adapt-phase/adapt-failover
//	                          experiments arm their own tuning
//
// Run governance (any cluster experiment; see internal/guard):
//
//	-audit=false              disable the conservation auditor
//	-stall-horizon 200ms      arm the liveness watchdog (sim-time horizon)
//	-max-wall 10m             truncate gracefully after this much wall time
//
// SIGINT/SIGTERM also truncate gracefully: the current run drains at the
// next event boundary and partial results (marked "truncated") plus all
// -metrics/-trace artifacts are still written. A stopped campaign keeps
// its finished jobs; -resume completes the rest. All file artifacts are
// written atomically (temp file + rename), so an interrupted run never
// leaves a half-written file.
//
// Exit codes:
//
//	0  success: run completed, every campaign job done, or no diff breach
//	1  usage, configuration, I/O or internal error, or a failed campaign job
//	2  a check failed: liveness stall (diagnostic dump on stderr),
//	   conservation-invariant violation, or a -diff breach (the table on
//	   stdout, most divergent first)
//	3  run or campaign truncated (SIGINT, SIGTERM, or -max-wall); partial
//	   results and artifacts were written
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"srcsim/internal/atomicio"
	"srcsim/internal/cluster"
	"srcsim/internal/core"
	"srcsim/internal/devrun"
	"srcsim/internal/faults"
	"srcsim/internal/guard"
	"srcsim/internal/harness"
	"srcsim/internal/netsim"
	"srcsim/internal/obs"
	"srcsim/internal/obs/live"
	"srcsim/internal/obs/timeseries"
	"srcsim/internal/scenario"
	"srcsim/internal/sim"
	"srcsim/internal/sweep"
)

// Exit codes; keep in sync with the package comment and README.
const (
	exitOK        = 0
	exitError     = 1
	exitCheck     = 2
	exitTruncated = 3
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("srcsim: ")
	os.Exit(run(os.Args[1:], os.Stdout))
}

// fail classifies err into an exit code, printing it (and, for a
// liveness stall, the diagnostic dump) to stderr.
func fail(err error) int {
	var se *guard.StallError
	if errors.As(err, &se) {
		log.Print(err)
		if se.Dump != nil {
			fmt.Fprintln(os.Stderr, "guard dump:")
			se.Dump.WriteTo(os.Stderr)
		}
		return exitCheck
	}
	var ve *guard.ViolationError
	if errors.As(err, &ve) {
		log.Print(err)
		return exitCheck
	}
	log.Print(err)
	return exitError
}

// defineParamFlags adds one string flag per distinct registry parameter
// name. seed and train are srcsim's own typed flags (they also seed the
// congestion model); any other collision with a srcsim flag panics.
func defineParamFlags(fs *flag.FlagSet) {
	var names []string
	help := map[string]string{}
	users := map[string][]string{}
	for _, e := range harness.Experiments() {
		for _, p := range e.Params {
			if _, ok := help[p.Name]; !ok {
				names = append(names, p.Name)
				help[p.Name] = p.Help
			}
			users[p.Name] = append(users[p.Name], e.Name)
		}
	}
	for _, n := range names {
		if n == "seed" || n == "train" {
			continue
		}
		fs.String(n, "", fmt.Sprintf("%s [%s; defaults: -list]", help[n], strings.Join(users[n], ", ")))
	}
}

// govern starts what every simulating mode shares: one Stopper fired by
// SIGINT/SIGTERM or the -max-wall budget (a second signal falls through
// to the default handler and kills the process) and, when addr is set,
// the live inspector. stop releases both, first holding the inspector
// up for grace so scrapers racing a short run still see the final state.
// The run is over once stop is called: a signal then ends the grace
// window early instead of truncating anything.
func govern(maxWall time.Duration, addr string, grace time.Duration) (stopper *guard.Stopper, board *live.Board, stop func(), err error) {
	stopper = guard.NewStopper()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case s := <-sigc:
			signal.Stop(sigc)
			fmt.Fprintf(os.Stderr, "srcsim: %v: truncating run (again to kill)\n", s)
			stopper.Stop(fmt.Sprintf("signal: %v", s))
		case <-done:
		}
	}()
	var timer *time.Timer
	if maxWall > 0 {
		timer = time.AfterFunc(maxWall, func() {
			stopper.Stop(fmt.Sprintf("wall budget %v exceeded", maxWall))
		})
	}
	var srv *live.Server
	stop = func() {
		if timer != nil {
			timer.Stop()
		}
		close(done)
		// From here on only the grace window below receives signals.
		<-exited
		if srv != nil {
			select {
			case <-time.After(grace):
			case <-sigc:
			}
			srv.Close()
		}
		signal.Stop(sigc)
	}
	if addr != "" {
		board = live.NewBoard()
		if srv, err = live.Serve(addr, board); err != nil {
			stop()
			return nil, nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "live inspector on http://%s (/metrics, /series, /progress)\n", srv.Addr())
	}
	return stopper, board, stop, nil
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("srcsim", flag.ContinueOnError)
	experiment := fs.String("experiment", "fig7", "registered experiment to run (see -list)")
	list := fs.Bool("list", false, "list registered experiments with their parameters and exit")
	listCC := fs.Bool("list-cc", false, "list registered congestion-control schemes and exit")
	listScenarios := fs.Bool("list-scenarios", false, "list the built-in composed scenario library and exit")
	scenarioName := fs.String("scenario", "", "run a library scenario by name, or a scenario spec by .json path (shorthand for -experiment scenario; see -list-scenarios)")
	replayFile := fs.String("replay", "", "replay a trace file on the Sec. IV-D testbed (shorthand for -experiment replay -file F)")
	campaign := fs.String("campaign", "", "run the experiment campaign in this spec file (JSON, see internal/sweep); needs -out")
	outDir := fs.String("out", "", "campaign output directory")
	resume := fs.Bool("resume", false, "continue the campaign in -out: skip jobs whose artifacts are already on disk")
	diff := fs.Bool("diff", false, "compare the metrics of the two sources given as arguments (metrics.json or a campaign output directory); exit 2 on a breach")
	rel := fs.Float64("rel", 0, "-diff relative-change tolerance: |b-a|/max(|a|,|b|) at or below this never breaches (0 = any change breaches)")
	seed := fs.Uint64("seed", 7, "congestion-model training seed (trains with seed^0xbeef); also overrides the experiment's seed param when set")
	trainCount := fs.Int("train", 1500, "per-direction request count for congestion-model training runs; also overrides the experiment's train param when set")
	jsonOut := fs.Bool("json", false, "print the experiment's machine-readable data (JSON) instead of its text; with -diff, the full diff")
	tpmPath := fs.String("tpm", "", "load a pre-trained congestion TPM (from -save-tpm) instead of training")
	saveTPM := fs.String("save-tpm", "", "write the congestion TPM this invocation would use (cached or trained, or -tpm) to this path and exit")
	faultsFile := fs.String("faults", "", "load a fault-injection schedule (JSON, see internal/faults) and replay it into every cluster run")
	adapt := fs.Bool("adapt", false, "arm adaptive SRC (in-run TPM retraining + degradation ladder, default tuning) on every cluster run; the adapt-* experiments tune it themselves")
	metricsOut := fs.String("metrics", "", "write a metrics-registry JSON snapshot to this file")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON file (open in chrome://tracing or Perfetto)")
	recordOut := fs.String("record", "", "write the flight-recorder congestion timeline to this file (.csv long format, .jsonl columnar, anything else Chrome-trace counter JSON)")
	recordInterval := fs.Duration("record-interval", 100*time.Microsecond, "flight-recorder sample period in sim time")
	recordCap := fs.Int("record-cap", timeseries.DefaultCapacity, "flight-recorder ring capacity (max samples kept per series)")
	serveAddr := fs.String("serve", "", "serve the live inspector (/metrics Prometheus text, /series JSON, /progress campaign JSON) on this address during the run, e.g. :8080")
	serveGrace := fs.Duration("serve-grace", 0, "keep the live inspector up this long (wall time) after the run finishes before exiting")
	progressEvery := fs.Duration("progress", 0, "print a progress line to stderr every interval of sim time (e.g. 100ms; 0 disables)")
	audit := fs.Bool("audit", true, "run the conservation auditor on every cluster run (read-only; a violation fails the run)")
	stallHorizon := fs.Duration("stall-horizon", 0, "arm the liveness watchdog: fail with a diagnostic dump if the oldest in-flight command exceeds this sim-time age with no progress (0 disables)")
	maxWall := fs.Duration("max-wall", 0, "truncate the run or campaign gracefully after this much wall-clock time (0 = unlimited); partial results are still written")
	defineParamFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitOK
		}
		return exitError
	}

	if *list {
		harness.FprintExperiments(stdout)
		return exitOK
	}
	if *listCC {
		netsim.FprintCCSchemes(stdout)
		return exitOK
	}
	if *listScenarios {
		for _, sc := range scenario.Library() {
			fmt.Fprintf(stdout, "%-22s %s\n", sc.Name, sc.Title)
		}
		return exitOK
	}
	if *diff {
		return runDiff(fs.Args(), *rel, *jsonOut, stdout)
	}
	if *campaign != "" {
		if *outDir == "" {
			log.Print("-campaign needs -out")
			return exitError
		}
		stopper, board, stop, err := govern(*maxWall, *serveAddr, *serveGrace)
		if err != nil {
			return fail(err)
		}
		defer stop()
		return runCampaign(*campaign, *outDir, *resume, stopper, board)
	}

	// getTPM resolves the congestion model, lazily: -tpm loads a
	// pre-trained file; otherwise training runs behind the
	// content-addressed artifact cache, so repeated invocations with the
	// same training inputs reuse the stored model.
	getTPM := func(harness.TPMKind) (*core.TPM, error) {
		if *tpmPath != "" {
			f, err := os.Open(*tpmPath)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			fmt.Fprintf(os.Stderr, "loading TPM from %s\n", *tpmPath)
			return core.LoadTPM(f)
		}
		start := time.Now()
		fmt.Fprintf(os.Stderr, "training TPM (SSD-A target array)...\n")
		tpm, hit, err := harness.TrainCongestionTPMCached(devrun.TPMCacheFromEnv(), *trainCount, *seed^0xbeef)
		if err != nil {
			return nil, err
		}
		if hit {
			fmt.Fprintf(os.Stderr, "reused cached TPM (%s=off forces retraining)\n", devrun.TPMCacheEnv)
		} else {
			fmt.Fprintf(os.Stderr, "trained in %v\n", time.Since(start))
		}
		return tpm, nil
	}
	if *saveTPM != "" {
		tpm, err := getTPM(harness.TPMCongestion)
		if err != nil {
			return fail(err)
		}
		if err := atomicio.WriteFile(*saveTPM, tpm.Save); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "saved TPM to %s\n", *saveTPM)
		return exitOK
	}

	overrides := map[string]string{}
	switch {
	case *scenarioName != "":
		*experiment = "scenario"
		// A path selects a custom spec file; a bare word a library entry.
		if strings.ContainsRune(*scenarioName, '/') || strings.HasSuffix(*scenarioName, ".json") {
			overrides["file"] = *scenarioName
		} else {
			overrides["name"] = *scenarioName
		}
	case *replayFile != "":
		*experiment = "replay"
		overrides["file"] = *replayFile
	}
	// Fail on a bad -experiment now, before minutes of TPM training.
	exp, ok := harness.LookupExperiment(*experiment)
	if !ok {
		log.Printf("unknown experiment %q (registered: %s; run srcsim -list)",
			*experiment, strings.Join(harness.ExperimentNames(), ", "))
		return exitError
	}
	// Overlay explicitly set flags onto the experiment's declared
	// defaults; flags the experiment does not declare are ignored, so
	// e.g. -cc only affects experiments with a cc parameter.
	fs.Visit(func(f *flag.Flag) {
		if _, ok := exp.Param(f.Name); ok {
			overrides[f.Name] = f.Value.String()
		}
	})
	params, err := exp.Resolve(overrides)
	if err != nil {
		log.Print(err)
		return exitError
	}

	var faultSched *faults.Schedule
	if *faultsFile != "" {
		var err error
		faultSched, err = faults.LoadFile(*faultsFile)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "loaded %d fault events from %s\n", len(faultSched.Events), *faultsFile)
	}

	// Graceful cancellation: the cluster drains at the next event
	// boundary once the stopper fires and the partial result is marked
	// truncated.
	stopper, board, stop, err := govern(*maxWall, *serveAddr, *serveGrace)
	if err != nil {
		return fail(err)
	}
	defer stop()

	// Shared observability sinks, attached to every cluster run via the
	// harness spec mods; nil values keep all hooks no-ops.
	var reg *obs.Registry
	if *metricsOut != "" || *serveAddr != "" {
		reg = obs.NewRegistry()
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(0)
	}
	var recorder *timeseries.Recorder
	if *recordOut != "" || *serveAddr != "" {
		recorder = timeseries.New(sim.Time(*recordInterval), *recordCap)
	}
	withObs := func(s *cluster.Spec) {
		s.Metrics = reg
		s.Trace = tracer
		s.Recorder = recorder
		s.Board = board
		if faultSched != nil {
			// -faults replaces any schedule the experiment installed;
			// without the flag, scenarios that arm their own chaos
			// (adapt-*) keep it.
			s.Faults = faultSched
		}
		if *adapt && !s.SRC.Adaptive.Enabled {
			// Default tuning (core.AdaptiveConfig defaults); scenarios
			// that armed their own adaptive config keep it.
			s.SRC.Adaptive.Enabled = true
		}
		if *progressEvery > 0 {
			s.Progress = os.Stderr
			s.ProgressEvery = sim.Time(*progressEvery)
		}
		s.Guard.Audit = *audit
		s.Guard.StallHorizon = sim.Time(*stallHorizon)
		s.Guard.Stop = stopper
	}
	env := &harness.Env{TPM: getTPM, Mods: []func(*cluster.Spec){withObs}}
	out, err := exp.Run(env, params)
	if err != nil {
		return fail(err)
	}
	if *jsonOut {
		// The same bytes a campaign stores per job.
		b, err := json.Marshal(out.Data)
		if err != nil {
			return fail(err)
		}
		stdout.Write(append(b, '\n'))
	} else {
		io.WriteString(stdout, out.Text)
	}

	// Flush artifacts, then convert a stopper firing into the truncated
	// exit code.
	if reg != nil && *metricsOut != "" {
		if err := atomicio.WriteFile(*metricsOut, reg.WriteJSON); err != nil {
			return fail(err)
		}
		snap := reg.Snapshot()
		fmt.Fprintf(os.Stderr, "wrote %d metric series to %s\n", snap.NumSeries(), *metricsOut)
	}
	if tracer != nil {
		if recorder != nil {
			// Fold the congestion timeline into the same trace so the
			// counter tracks render alongside the event spans.
			recorder.EmitChromeCounters(tracer.Scope("recorder"))
		}
		if err := atomicio.WriteFile(*traceOut, tracer.WriteChromeTrace); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace events (%d dropped) to %s\n",
			tracer.Len(), tracer.Dropped(), *traceOut)
	}
	if recorder != nil && *recordOut != "" {
		write := recorder.WriteChromeTrace
		switch {
		case strings.HasSuffix(*recordOut, ".csv"):
			write = recorder.WriteCSV
		case strings.HasSuffix(*recordOut, ".jsonl"):
			write = recorder.WriteJSONL
		}
		if err := atomicio.WriteFile(*recordOut, write); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote flight-recorder timeline (%d series) to %s\n",
			len(recorder.Dump(1)), *recordOut)
	}
	if stopper.Stopped() {
		log.Printf("run truncated: %s", stopper.Reason())
		return exitTruncated
	}
	return exitOK
}

// runCampaign runs a campaign spec into out. Finished jobs and trained
// models share the SRCSIM_TPM_CACHE artifact cache; a stopper firing
// drains running jobs and keeps finished ones for -resume.
func runCampaign(path, out string, resume bool, stopper *guard.Stopper, board *live.Board) int {
	spec, err := sweep.LoadCampaign(path)
	if err != nil {
		return fail(err)
	}
	runner := &sweep.Runner{
		Out:    out,
		Cache:  devrun.TPMCacheFromEnv(),
		Stop:   stopper,
		Resume: resume,
		Log:    os.Stderr,
		Board:  board,
	}
	rep, err := runner.Run(spec)
	if err != nil {
		return fail(err)
	}
	log.Printf("%s: %d/%d done (failed %d, resumed %d) | cache hits: %d/%d",
		rep.Campaign, rep.Done+rep.Resumed, rep.Total, rep.Failed, rep.Resumed, rep.CacheHits, rep.Executed)
	log.Printf("outputs in %s (report.txt, aggregate.json, metrics.json, manifest.json)", rep.OutDir)
	if rep.Truncated {
		log.Printf("campaign truncated: %s (use -resume to finish)", stopper.Reason())
		return exitTruncated
	}
	if rep.Failed > 0 {
		log.Printf("%d job(s) failed; see manifest.json", rep.Failed)
		return exitError
	}
	return exitOK
}
