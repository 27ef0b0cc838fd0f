package harness

import (
	"fmt"
	"io"
	"strings"
	"time"

	"srcsim/internal/sim"
	"srcsim/internal/trace"
	"srcsim/internal/workload"
)

func init() {
	register(&Experiment{
		Name:  "tracegen",
		Title: "generate a workload trace (csv or jsonl on stdout), or inspect a trace file's statistics",
		Params: []Param{
			{Name: "kind", Default: "micro", Help: "workload kind: micro | synthetic | vdi | cbs"},
			{Name: "count", Default: "5000", Help: "requests per direction"},
			{Name: "ia", Default: "10us", Help: "mean inter-arrival per direction (a Go duration, e.g. 10us)"},
			{Name: "size", Default: "32768", Help: "mean request size in bytes"},
			{Name: "ia_scv", Default: "4", Help: "inter-arrival SCV (synthetic)"},
			{Name: "size_scv", Default: "2", Help: "request-size SCV (synthetic)"},
			{Name: "acf", Default: "0.2", Help: "inter-arrival lag-1 autocorrelation (synthetic)"},
			{Name: "seed", Default: "1", Help: "generator seed"},
			{Name: "format", Default: "csv", Help: "trace encoding: csv | jsonl when generating; csv | msr | jsonl when inspecting"},
			{Name: "file", Default: "", Help: "inspect this trace file instead of generating one"},
		},
		Run: runTracegen,
	})
}

// runTracegen generates the requested trace (Text is its encoding) or,
// with a file param, reads that trace (Text is its statistics). Data is
// the trace's trace.Extract statistics either way.
func runTracegen(env *Env, p Params) (*Output, error) {
	if p["file"] != "" {
		tr, err := trace.ReadFile(p["file"], p["format"])
		if err != nil {
			return nil, err
		}
		s := trace.Extract(tr)
		return &Output{Text: render(func(w io.Writer) { fprintTraceStats(w, s) }), Data: s}, nil
	}

	var write func(io.Writer, *trace.Trace) error
	switch p["format"] {
	case "csv":
		write = trace.WriteCSV
	case "jsonl":
		write = trace.WriteJSONL
	default:
		return nil, fmt.Errorf("harness: tracegen: unknown output format %q (want csv or jsonl)", p["format"])
	}
	count, err := p.Int("count")
	if err != nil {
		return nil, err
	}
	ia, err := time.ParseDuration(p["ia"])
	if err != nil {
		return nil, fmt.Errorf("harness: param ia=%q: %w", p["ia"], err)
	}
	size, err := p.Int("size")
	if err != nil {
		return nil, err
	}
	iaSCV, err := p.Float("ia_scv")
	if err != nil {
		return nil, err
	}
	sizeSCV, err := p.Float("size_scv")
	if err != nil {
		return nil, err
	}
	acf, err := p.Float("acf")
	if err != nil {
		return nil, err
	}
	seed, err := p.Uint64("seed")
	if err != nil {
		return nil, err
	}
	meanIA := sim.Time(ia.Nanoseconds())
	tr, err := workload.Build(p["kind"], count, workload.SyntheticConfig{
		Seed:      seed,
		ReadCount: count, WriteCount: count,
		ReadInterArrival: meanIA, WriteInterArrival: meanIA,
		ReadInterArrivalSCV: iaSCV, WriteInterArrivalSCV: iaSCV,
		ReadACF1: acf, WriteACF1: acf,
		ReadMeanSize: size, WriteMeanSize: size,
		ReadSizeSCV: sizeSCV, WriteSizeSCV: sizeSCV,
	})
	if err != nil {
		return nil, err
	}
	var text strings.Builder
	if err := write(&text, tr); err != nil {
		return nil, err
	}
	return &Output{Text: text.String(), Data: trace.Extract(tr)}, nil
}

// fprintTraceStats renders a trace's summary and per-direction feature
// statistics.
func fprintTraceStats(w io.Writer, s trace.Stats) {
	fmt.Fprintf(w, "%s\n", s)
	for _, d := range []struct {
		label string
		st    trace.DirStats
	}{{"read: ", s.Read}, {"write:", s.Write}} {
		fmt.Fprintf(w, "%s n=%d meanSize=%.0fB sizeSCV=%.2f meanIA=%.1fus iaSCV=%.2f acf1=%.2f flow=%.2f MB/s\n",
			d.label, d.st.Count, d.st.MeanSize, d.st.SizeSCV,
			d.st.MeanInterArrival/1000, d.st.InterArrivalSCV, d.st.InterArrivalACF1,
			d.st.FlowSpeed/1e6)
	}
}
