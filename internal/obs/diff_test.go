package obs

import (
	"testing"
)

func diffSnapA() Snapshot {
	return Snapshot{
		Counters: map[string]float64{
			"netsim/ecn_marks":  100,
			"netsim/pfc_pauses": 5,
		},
		Gauges: map[string]float64{"core/weight_ratio": 4},
		Histograms: map[string]HistogramSnapshot{
			"ssd/read_latency_us": {Count: 1000, Mean: 50, P50: 40, P99: 200, P999: 400, Min: 1, Max: 500},
		},
	}
}

// TestFlattenSnapshot: every series type lowers into scalars, with
// histograms expanding into their digest fields.
func TestFlattenSnapshot(t *testing.T) {
	f := FlattenSnapshot(diffSnapA())
	want := map[string]float64{
		"netsim/ecn_marks":          100,
		"netsim/pfc_pauses":         5,
		"core/weight_ratio":         4,
		"ssd/read_latency_us:count": 1000,
		"ssd/read_latency_us:mean":  50,
		"ssd/read_latency_us:p50":   40,
		"ssd/read_latency_us:p99":   200,
		"ssd/read_latency_us:p999":  400,
		"ssd/read_latency_us:min":   1,
		"ssd/read_latency_us:max":   500,
	}
	if len(f) != len(want) {
		t.Fatalf("flattened %d series, want %d: %v", len(f), len(want), f)
	}
	for k, v := range want {
		if f[k] != v {
			t.Fatalf("%s = %g, want %g", k, f[k], v)
		}
	}
}

// TestDiffIdentical: identical snapshots produce an empty diff.
func TestDiffIdentical(t *testing.T) {
	d := DiffSnapshots(diffSnapA(), diffSnapA(), 0)
	if len(d.Entries) != 0 || d.Breaches != 0 {
		t.Fatalf("identical snapshots diff: %+v", d)
	}
}

// TestDiffThresholds: a zero tolerance breaches on any change; a
// relative tolerance suppresses small drift.
func TestDiffThresholds(t *testing.T) {
	b := diffSnapA()
	b.Counters["netsim/ecn_marks"] = 101 // +1%

	d := DiffSnapshots(diffSnapA(), b, 0)
	if d.Breaches != 1 || len(d.Entries) != 1 {
		t.Fatalf("strict diff: %+v", d)
	}
	e := d.Entries[0]
	if e.Key != "netsim/ecn_marks" || e.Abs != 1 || !e.Breach {
		t.Fatalf("entry: %+v", e)
	}
	wantRel := 1.0 / 101.0
	if e.Rel < wantRel-1e-12 || e.Rel > wantRel+1e-12 {
		t.Fatalf("rel %g, want %g", e.Rel, wantRel)
	}

	// 2% relative tolerance absorbs a 1% change (entry still reported).
	d = DiffSnapshots(diffSnapA(), b, 0.02)
	if d.Breaches != 0 || len(d.Entries) != 1 {
		t.Fatalf("tolerant diff: %+v", d)
	}
	// A tolerance below the change still breaches.
	d = DiffSnapshots(diffSnapA(), b, 0.005)
	if d.Breaches != 1 {
		t.Fatalf("exceeded diff: %+v", d)
	}
}

// TestDiffMissingSeries: one-sided series are fully divergent breaches,
// whatever the tolerance.
func TestDiffMissingSeries(t *testing.T) {
	b := diffSnapA()
	delete(b.Counters, "netsim/pfc_pauses")
	b.Gauges["core/degraded"] = 1

	d := DiffSnapshots(diffSnapA(), b, 0)
	if d.Breaches != 2 || len(d.Entries) != 2 {
		t.Fatalf("missing diff: %+v", d)
	}
	for _, e := range d.Entries {
		if e.Rel != 1 || !e.Breach {
			t.Fatalf("missing entry not fully divergent: %+v", e)
		}
		if e.PresentA && e.PresentB {
			t.Fatalf("entry claims both sides present: %+v", e)
		}
	}

	d = DiffSnapshots(diffSnapA(), b, 1)
	if d.Breaches != 2 {
		t.Fatalf("tolerant missing diff: %+v", d)
	}
}

// TestDiffOrdering: entries sort most-divergent first (rel, then abs,
// then key), so the report leads with the biggest regressions.
func TestDiffOrdering(t *testing.T) {
	a := Snapshot{Counters: map[string]float64{"x/small": 1000, "x/big": 10, "x/gone": 1}}
	b := Snapshot{Counters: map[string]float64{"x/small": 1001, "x/big": 20}}
	d := DiffSnapshots(a, b, 0)
	want := []string{"x/gone", "x/big", "x/small"} // rel 1, 0.5, ~0.001
	if len(d.Entries) != len(want) {
		t.Fatalf("entries: %+v", d.Entries)
	}
	for i, k := range want {
		if d.Entries[i].Key != k {
			t.Fatalf("order %d = %s, want %s (%+v)", i, d.Entries[i].Key, k, d.Entries)
		}
	}
}
