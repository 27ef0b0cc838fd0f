package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// traceProfile is the text of `go tool pprof -traces`: one sample per
// stack, frames innermost first, values in ms (CPU) or bytes (memory).
type traceProfile struct {
	Type string
	// Total is the header's "Total samples" in ms; 0 when absent.
	Total   float64
	Samples []traceSample
}

type traceSample struct {
	Value  float64
	Frames []string
}

// pprofTraces runs `go tool pprof -traces` on a profile file.
func pprofTraces(path string, extra ...string) (*traceProfile, error) {
	args := append([]string{"tool", "pprof", "-traces"}, extra...)
	cmd := exec.Command("go", append(args, path)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w: %s", path, err, stderr.Bytes())
	}
	return parseTraces(bytes.NewReader(out))
}

const traceSeparator = "-----------+"

// parseTraces reads `go tool pprof -traces` output. The header carries
// Type and, for CPU profiles, "Total samples = <value>"; each sample
// follows a separator line as optional "key: value" label lines, then its
// value and innermost frame on one line, then one frame per line.
func parseTraces(r io.Reader) (*traceProfile, error) {
	p := &traceProfile{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var cur *traceSample
	inHeader := true
	for ln := 1; sc.Scan(); ln++ {
		line := sc.Text()
		if strings.HasPrefix(line, traceSeparator) {
			inHeader = false
			cur = nil
			continue
		}
		if inHeader {
			if v, ok := strings.CutPrefix(line, "Type: "); ok {
				p.Type = strings.TrimSpace(v)
			}
			if _, v, ok := strings.Cut(line, "Total samples = "); ok {
				tot, err := parseValue(strings.TrimSpace(strings.Split(v, " ")[0]))
				if err != nil {
					return nil, fmt.Errorf("line %d: %w", ln, err)
				}
				p.Total = tot
			}
			continue
		}
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0:
		case cur == nil && strings.HasSuffix(fields[0], ":"):
			// A label line ("bytes:  96B") before the sample's value.
		case cur == nil:
			if len(fields) < 2 {
				return nil, fmt.Errorf("line %d: want a value and a frame, got %q", ln, line)
			}
			v, err := parseValue(fields[0])
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", ln, err)
			}
			p.Samples = append(p.Samples, traceSample{Value: v, Frames: []string{fields[1]}})
			cur = &p.Samples[len(p.Samples)-1]
		default:
			cur.Frames = append(cur.Frames, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if p.Type == "" {
		return nil, fmt.Errorf("no \"Type:\" header: not pprof -traces output")
	}
	return p, nil
}

// valueUnits scales pprof's printed units to ms (time) and bytes
// (memory; pprof's kB/MB/GB are powers of 1024).
var valueUnits = map[string]float64{
	"ns": 1e-6, "us": 1e-3, "µs": 1e-3, "μs": 1e-3, "ms": 1, "s": 1e3,
	"mins": 60e3, "hrs": 3600e3,
	"B": 1, "kB": 1 << 10, "MB": 1 << 20, "GB": 1 << 30, "TB": 1 << 40,
}

func parseValue(s string) (float64, error) {
	i := strings.IndexFunc(s, func(r rune) bool { return (r < '0' || r > '9') && r != '.' })
	if i <= 0 {
		return 0, fmt.Errorf("bad value %q", s)
	}
	scale, ok := valueUnits[s[i:]]
	if !ok {
		return 0, fmt.Errorf("bad unit in %q", s)
	}
	v, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, fmt.Errorf("bad value %q: %w", s, err)
	}
	return v * scale, nil
}

// pkgLayer folds input-generation packages into the workload layer; a
// package not named here is its own layer. (The scenario compiler's own
// cost is too small for a 100 Hz profile to see on its own.)
var pkgLayer = map[string]string{"dist": "workload", "trace": "workload", "scenario": "workload"}

const internalPrefix = "srcsim/internal/"

// layerOfFunc maps one function name to its layer among layers: the
// srcsim/internal package it belongs to, or "other".
func layerOfFunc(fn string, layers []string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "other"
	}
	pkg := rest[:strings.IndexAny(rest+".", "./")]
	if l, ok := pkgLayer[pkg]; ok {
		pkg = l
	}
	for _, l := range layers {
		if l == pkg {
			return pkg
		}
	}
	return "other"
}

// layerOfStack charges a stack (innermost frame first) to the layer of
// its innermost srcsim/internal frame, so a layer's figure includes the
// map, allocation and other runtime work it called. A stack with no such
// frame goes to "gc" when it is a GC background worker and to "other"
// otherwise.
func layerOfStack(frames []string, layers []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, internalPrefix) {
			return layerOfFunc(f, layers)
		}
	}
	for _, f := range frames {
		if f == "runtime.gcBgMarkWorker" {
			return "gc"
		}
	}
	return "other"
}

// byLayer sums a profile's sample values per layer; every layer in
// layers, which must include "other", has an entry.
func byLayer(p *traceProfile, layers []string) map[string]float64 {
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	for _, s := range p.Samples {
		l := layerOfStack(s.Frames, layers)
		if _, ok := out[l]; !ok {
			l = "other"
		}
		out[l] += s.Value
	}
	return out
}
