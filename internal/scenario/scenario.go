// Package scenario is the application-centric workload toolchain: a
// declarative JSON DSL that composes named workload phases — each a
// synthetic workload config or an ingested trace, with an intensity
// scale, request/duration budgets, and optional phase-local faults —
// into one deterministic merged trace.Trace plus a faults.Schedule.
//
// Phases compose two ways. A *sequential* phase starts where the
// previous sequential phase's window ended (its duration budget if set,
// else its realised trace span). An *overlay* phase runs concurrently:
// it anchors to the most recent sequential phase's start plus its own
// start_ms offset and does not advance the timeline cursor — a boot
// storm laid over a steady-state desktop workload, a backup scan over
// OLTP traffic. Phase-local fault events are written relative to the
// phase start and compiled to absolute cluster time, then validated as
// one faults.Schedule so cross-phase window overlaps fail loudly.
//
// The package also closes the loop from real traces back to reusable
// configs: Fit refits any ingested trace (open JSONL format, CSV, MSR)
// into a workload.SyntheticConfig via the same MMPP(2)/log-normal
// moment matching the paper uses for the Fujitsu VDI and Tencent CBS
// statistics (Sec. IV-A).
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"srcsim/internal/faults"
	"srcsim/internal/workload"
)

// Workload kinds a phase may reference.
const (
	KindMicro     = workload.KindMicro
	KindSynthetic = workload.KindSynthetic
	KindVDI       = workload.KindVDI
	KindCBS       = workload.KindCBS
)

// WorkloadRef declares a phase's generated workload. Micro phases use
// the per-direction count/inter-arrival/size knobs; synthetic phases
// additionally shape burstiness with ia_scv/size_scv/acf1; vdi and cbs
// reference the paper's refitted trace presets and take only count
// (requests per direction).
type WorkloadRef struct {
	Kind string `json:"kind"`
	// Count is the per-direction request count of the vdi/cbs presets.
	Count int `json:"count,omitempty"`
	// Reads/Writes are the micro/synthetic per-direction counts; a zero
	// count disables that direction.
	Reads  int `json:"reads,omitempty"`
	Writes int `json:"writes,omitempty"`
	// Mean inter-arrival per direction, microseconds.
	ReadIAUS  float64 `json:"read_ia_us,omitempty"`
	WriteIAUS float64 `json:"write_ia_us,omitempty"`
	// Mean request size per direction, bytes.
	ReadSize  int `json:"read_size,omitempty"`
	WriteSize int `json:"write_size,omitempty"`
	// Synthetic burstiness: inter-arrival SCV (>= 1), size SCV, and
	// inter-arrival lag-1 autocorrelation, applied to both directions.
	IASCV   float64 `json:"ia_scv,omitempty"`
	SizeSCV float64 `json:"size_scv,omitempty"`
	ACF1    float64 `json:"acf1,omitempty"`
}

// TraceRef replays (or refits) an ingested trace file as a phase.
type TraceRef struct {
	Path string `json:"path"`
	// Format of the file: jsonl (the open trace format, default), csv
	// (tracegen), or msr (MSR Cambridge / SNIA).
	Format string `json:"format,omitempty"`
	// Refit regenerates the phase from the trace's fitted statistics
	// (scenario.Fit) instead of replaying it verbatim, making the phase
	// reseedable and budget-scalable.
	Refit bool `json:"refit,omitempty"`
}

// Phase is one named segment of a scenario.
type Phase struct {
	Name string `json:"name"`
	// Overlay phases run concurrently with the surrounding sequential
	// timeline instead of advancing it; see the package comment.
	Overlay bool `json:"overlay,omitempty"`
	// StartMS offsets an overlay phase from its anchor phase's start,
	// milliseconds. Sequential phases must leave it zero.
	StartMS float64 `json:"start_ms,omitempty"`
	// DurationMS is the phase's duration budget: requests arriving past
	// it are dropped and the timeline advances by exactly this much
	// (sequential phases). Zero means the realised trace span.
	DurationMS float64 `json:"duration_ms,omitempty"`
	// Requests caps the phase's request count (after intensity scaling,
	// before the duration cut). Zero means no cap.
	Requests int `json:"requests,omitempty"`
	// Intensity scales the arrival rate: 2 doubles it, 0.5 halves it.
	// Zero means 1 (unscaled).
	Intensity float64 `json:"intensity,omitempty"`
	// Exactly one of Workload and Trace must be set.
	Workload *WorkloadRef `json:"workload,omitempty"`
	Trace    *TraceRef    `json:"trace,omitempty"`
	// Faults are phase-local fault events; at_ns is relative to the
	// phase start and compiled to absolute time.
	Faults []faults.Event `json:"faults,omitempty"`
}

// Spec is a full scenario: a name, a default seed, and the phase list.
type Spec struct {
	Name string `json:"name"`
	// Seed is the default workload seed; Compile's seed argument
	// overrides it when non-zero.
	Seed   uint64  `json:"seed,omitempty"`
	Phases []Phase `json:"phases"`
}

// ParseSpec reads a scenario from JSON, rejecting unknown fields (a
// typo'd knob in a scenario must fail loudly, not silently no-op) and
// validating the result.
func ParseSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpec reads a scenario from a JSON file.
func LoadSpec(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	s, err := ParseSpec(f)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return s, nil
}

// Validate checks the spec's internal consistency with per-phase
// errors. Fault events are checked individually here; cross-phase
// window overlaps are caught at compile time once absolute times are
// known.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario %s: no phases", s.Name)
	}
	seen := make(map[string]bool, len(s.Phases))
	for i, ph := range s.Phases {
		tag := fmt.Sprintf("scenario %s: phase %d (%s)", s.Name, i, ph.Name)
		if ph.Name == "" {
			return fmt.Errorf("scenario %s: phase %d: missing name", s.Name, i)
		}
		if seen[ph.Name] {
			return fmt.Errorf("%s: duplicate phase name", tag)
		}
		seen[ph.Name] = true
		if i == 0 && ph.Overlay {
			return fmt.Errorf("%s: first phase cannot be an overlay (nothing to anchor to)", tag)
		}
		if !ph.Overlay && ph.StartMS != 0 {
			return fmt.Errorf("%s: start_ms is only meaningful on overlay phases", tag)
		}
		if ph.StartMS < 0 || ph.DurationMS < 0 {
			return fmt.Errorf("%s: negative start_ms/duration_ms", tag)
		}
		if ph.Requests < 0 {
			return fmt.Errorf("%s: negative requests", tag)
		}
		if ph.Intensity < 0 {
			return fmt.Errorf("%s: negative intensity", tag)
		}
		if (ph.Workload == nil) == (ph.Trace == nil) {
			return fmt.Errorf("%s: exactly one of workload and trace must be set", tag)
		}
		if ph.Workload != nil {
			if err := ph.Workload.validate(); err != nil {
				return fmt.Errorf("%s: %w", tag, err)
			}
		}
		if ph.Trace != nil {
			if err := ph.Trace.validate(); err != nil {
				return fmt.Errorf("%s: %w", tag, err)
			}
		}
		// Per-event checks via the faults validator; relative times are
		// as strict as absolute ones.
		if len(ph.Faults) > 0 {
			probe := &faults.Schedule{Events: ph.Faults}
			if err := probe.Validate(); err != nil {
				return fmt.Errorf("%s: %w", tag, err)
			}
		}
	}
	return nil
}

func (w *WorkloadRef) validate() error {
	switch w.Kind {
	case KindVDI, KindCBS:
		if w.Count <= 0 {
			return fmt.Errorf("workload %s: needs a positive count", w.Kind)
		}
		if w.Reads != 0 || w.Writes != 0 || w.ReadIAUS != 0 || w.WriteIAUS != 0 ||
			w.ReadSize != 0 || w.WriteSize != 0 || w.IASCV != 0 || w.SizeSCV != 0 || w.ACF1 != 0 {
			return fmt.Errorf("workload %s: presets take only count", w.Kind)
		}
	case KindMicro, KindSynthetic:
		if w.Count != 0 {
			return fmt.Errorf("workload %s: count is a vdi/cbs knob; use reads/writes", w.Kind)
		}
		if w.Reads <= 0 && w.Writes <= 0 {
			return fmt.Errorf("workload %s: needs reads or writes > 0", w.Kind)
		}
		if w.Reads < 0 || w.Writes < 0 {
			return fmt.Errorf("workload %s: negative reads/writes", w.Kind)
		}
		if w.Reads > 0 && (w.ReadIAUS <= 0 || w.ReadSize <= 0) {
			return fmt.Errorf("workload %s: read stream needs read_ia_us and read_size > 0", w.Kind)
		}
		if w.Writes > 0 && (w.WriteIAUS <= 0 || w.WriteSize <= 0) {
			return fmt.Errorf("workload %s: write stream needs write_ia_us and write_size > 0", w.Kind)
		}
		if w.Kind == KindMicro && (w.IASCV != 0 || w.SizeSCV != 0 || w.ACF1 != 0) {
			return fmt.Errorf("workload micro: ia_scv/size_scv/acf1 are synthetic knobs")
		}
		if w.Kind == KindSynthetic {
			if w.IASCV != 0 && w.IASCV < 1 {
				return fmt.Errorf("workload synthetic: ia_scv %g < 1", w.IASCV)
			}
			if w.SizeSCV < 0 || w.ACF1 < 0 {
				return fmt.Errorf("workload synthetic: negative size_scv/acf1")
			}
		}
	case "":
		return fmt.Errorf("workload: missing kind")
	default:
		return fmt.Errorf("workload: unknown kind %q (want micro, synthetic, vdi, or cbs)", w.Kind)
	}
	return nil
}

func (t *TraceRef) validate() error {
	if t.Path == "" {
		return fmt.Errorf("trace: missing path")
	}
	switch t.Format {
	case "", "jsonl", "csv", "msr":
		return nil
	default:
		return fmt.Errorf("trace: unknown format %q (want jsonl, csv, or msr)", t.Format)
	}
}
