package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into the simulator, kept in memory and written
// out when the benchmark ends. Start and End are seconds since the child
// process started; Iter is the iteration (0 is the warm-up).
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent string  `json:"parent"`
	Iter   int     `json:"iter"`
}

// recorder collects the spans of one child process.
type recorder struct {
	t0    time.Time
	iter  int
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) add(name, parent string, start, end time.Time) {
	r.spans = append(r.spans, span{
		Name: name, Parent: parent, Iter: r.iter,
		Start: start.Sub(r.t0).Seconds(), End: end.Sub(r.t0).Seconds(),
	})
}

// spanSums totals the spans of each name per iteration: sums[name][iter].
func spanSums(spans []span) map[string]map[int]float64 {
	sums := map[string]map[int]float64{}
	for _, s := range spans {
		if sums[s.Name] == nil {
			sums[s.Name] = map[int]float64{}
		}
		sums[s.Name][s.Iter] += s.End - s.Start
	}
	return sums
}

// writeChromeTrace writes the spans of each child process as Chrome
// trace complete events, one trace process per child.
func writeChromeTrace(path string, children []*childReport) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var evs []event
	for pid, c := range children {
		evs = append(evs, event{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": c.Label}})
		for _, s := range c.Spans {
			evs = append(evs, event{
				Name: s.Name, Ph: "X", Pid: pid,
				Ts: s.Start * 1e6, Dur: (s.End - s.Start) * 1e6,
				Args: map[string]any{"parent": s.Parent, "iter": s.Iter},
			})
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
