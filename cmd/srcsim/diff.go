package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"text/tabwriter"

	"srcsim/internal/obs"
)

// diffTop bounds the within-tolerance rows a -diff table shows after
// the breaches, which it always shows in full.
const diffTop = 20

// runDiff compares the metric sources in paths at relative tolerance
// rel: exit 0 when every difference is within it, 2 on a breach, 1 on a
// usage or I/O error.
func runDiff(paths []string, rel float64, jsonOut bool, stdout io.Writer) int {
	if len(paths) != 2 {
		log.Print("-diff needs exactly two metric sources (metrics.json or a campaign output directory)")
		return exitError
	}
	var snaps [2]obs.Snapshot
	for i, path := range paths {
		var err error
		if snaps[i], err = loadSnapshot(path); err != nil {
			log.Print(err)
			return exitError
		}
	}
	d := obs.DiffSnapshots(snaps[0], snaps[1], rel)
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d); err != nil {
			log.Print(err)
			return exitError
		}
	} else {
		printDiff(stdout, d, paths[0], paths[1])
	}
	if d.Breaches > 0 {
		log.Printf("%d metric(s) diverged beyond tolerance (rel %g)", d.Breaches, rel)
		return exitCheck
	}
	return exitOK
}

// printDiff renders the diff, breaches first (marked "!"), then up to
// diffTop within-tolerance entries.
func printDiff(w io.Writer, d obs.Diff, pathA, pathB string) {
	if len(d.Entries) == 0 {
		fmt.Fprintf(w, "identical metrics: %s == %s\n", pathA, pathB)
		return
	}
	fmt.Fprintf(w, "comparing A=%s B=%s: %d differing, %d breaching\n", pathA, pathB, len(d.Entries), d.Breaches)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "\tSERIES\tA\tB\tABS\tREL")
	shown := 0
	for _, e := range d.Entries {
		mark := ""
		if e.Breach {
			mark = "!"
		} else {
			if shown >= diffTop {
				continue
			}
			shown++
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%g\t%.4g\n",
			mark, e.Key, obs.FormatValue(e.A, e.PresentA), obs.FormatValue(e.B, e.PresentB), e.Abs, e.Rel)
	}
	tw.Flush()
	if more := len(d.Entries) - d.Breaches - shown; more > 0 {
		fmt.Fprintf(w, "(%d more within tolerance)\n", more)
	}
}

// loadSnapshot reads a metric source: a metrics.json snapshot, or a
// campaign output directory holding one.
func loadSnapshot(path string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	fi, err := os.Stat(path)
	if err != nil {
		return snap, err
	}
	if fi.IsDir() {
		path = filepath.Join(path, "metrics.json")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		return snap, fmt.Errorf("%s: %w", path, err)
	}
	if snap.NumSeries() == 0 {
		return snap, fmt.Errorf("%s: no metric series (wrong file?)", path)
	}
	return snap, nil
}
