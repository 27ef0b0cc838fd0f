package obs

import (
	"math"
	"sort"
	"strconv"
)

// FlattenSnapshot lowers a snapshot into one scalar per comparable
// quantity: counters and gauges keep their series key; each histogram
// expands into key:count, :mean, :p50, :p99, :p999, :min, :max. This is
// the common currency of cross-run metric diffing — two flattened
// snapshots can be compared key by key regardless of series type.
func FlattenSnapshot(s Snapshot) map[string]float64 {
	out := make(map[string]float64, len(s.Counters)+len(s.Gauges)+7*len(s.Histograms))
	for k, v := range s.Counters {
		out[k] = v
	}
	for k, v := range s.Gauges {
		out[k] = v
	}
	for k, h := range s.Histograms {
		out[k+":count"] = float64(h.Count)
		out[k+":mean"] = h.Mean
		out[k+":p50"] = h.P50
		out[k+":p99"] = h.P99
		out[k+":p999"] = h.P999
		out[k+":min"] = h.Min
		out[k+":max"] = h.Max
	}
	return out
}

// DiffEntry is one compared quantity across two runs. When a side is
// missing the corresponding Present flag is false and its value 0.
type DiffEntry struct {
	Key      string  `json:"key"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	PresentA bool    `json:"present_a"`
	PresentB bool    `json:"present_b"`
	// Abs is |B-A|; Rel is |B-A| / max(|A|,|B|) (0 when both zero,
	// 1 when a side is missing).
	Abs float64 `json:"abs"`
	Rel float64 `json:"rel"`
	// Breach marks the entry as exceeding the configured thresholds.
	Breach bool `json:"breach"`
}

// Diff is the result of comparing two flattened snapshots.
type Diff struct {
	Entries  []DiffEntry `json:"entries"`
	Breaches int         `json:"breaches"`
}

// DiffSnapshots compares run A against run B. An entry breaches when its
// Rel exceeds the relative tolerance rel (0 is the strictest gate: any
// change breaches) or its series is present on only one side. Identical
// entries are omitted; the rest are sorted most-divergent first (by Rel,
// then Abs, then key), with missing-on-one-side entries ranked as fully
// divergent.
func DiffSnapshots(a, b Snapshot, rel float64) Diff {
	fa, fb := FlattenSnapshot(a), FlattenSnapshot(b)
	keys := make(map[string]struct{}, len(fa)+len(fb))
	for k := range fa {
		keys[k] = struct{}{}
	}
	for k := range fb {
		keys[k] = struct{}{}
	}

	var d Diff
	for k := range keys {
		va, oka := fa[k]
		vb, okb := fb[k]
		e := DiffEntry{Key: k, A: va, B: vb, PresentA: oka, PresentB: okb}
		switch {
		case !oka || !okb:
			e.Abs = math.Abs(vb - va)
			e.Rel = 1
			e.Breach = true
		default:
			e.Abs = math.Abs(vb - va)
			if e.Abs == 0 {
				continue // identical; not worth reporting
			}
			if m := math.Max(math.Abs(va), math.Abs(vb)); m > 0 {
				e.Rel = e.Abs / m
			}
			e.Breach = e.Rel > rel
		}
		if e.Breach {
			d.Breaches++
		}
		d.Entries = append(d.Entries, e)
	}
	sort.Slice(d.Entries, func(i, j int) bool {
		x, y := d.Entries[i], d.Entries[j]
		if x.Rel != y.Rel {
			return x.Rel > y.Rel
		}
		if x.Abs != y.Abs {
			return x.Abs > y.Abs
		}
		return x.Key < y.Key
	})
	return d
}

// FormatValue renders a diff value compactly ("-" for a missing side).
func FormatValue(v float64, present bool) string {
	if !present {
		return "-"
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}
