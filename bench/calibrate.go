package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The host this benchmark runs on is shared: over minutes it runs the
// same code 20–50% slower or faster, which no run length averages away.
// The time metrics are therefore scaled to a reference host speed. A
// sampler goroutine runs a fixed calibration kernel every calPeriod on the
// child's single P, so the kernel and the workload share the thread and
// the moments the host was fast or slow. Each iteration's times are
// multiplied by calibrationRef over the kernel's mean time around that
// iteration, raised to calExponent (see scaleBetween).
//
// The kernel fills and probes a map, which depends on nothing in srcsim
// and, of the kernels tried (pointer chases in and out of cache, a binary
// heap, streaming writes), tracked the simulator's own slowdowns best.
const (
	calKeys   = 1 << 13
	calPeriod = 30 * time.Millisecond
	// calibrationRef is the kernel's typical time in seconds on the host
	// the bounds were set on (2 vCPUs, Intel Xeon, go1.24.0), so scaled
	// times read as seconds on that host.
	calibrationRef = 350e-6
	// calExponent is how much more than the kernel the simulator slows
	// down when the host does: the slope of log iteration time on log
	// kernel time, 1.4 to 1.9 over 15 s windows of one long fig7 run and
	// 1.5 across ten fig7-long runs. The kernel's L2-sized map feels a
	// busy host less than the simulator's 100 MB heap and the time the
	// host takes its CPU away (steal, 1–10% on that host), which the kernel's
	// fastest runs leave out. Scaling by the kernel alone left a spread of
	// 0.09 across those ten runs; this exponent leaves 0.04.
	calExponent = 1.5
	// calWindow is how far before and after an iteration the kernel runs
	// that scale it reach: the host's speed changes within a run too, and
	// scaling each iteration by the kernel around it rather than by the
	// whole run's cut the spread of 15 s windows by 15–35%.
	calWindow = 1.0 // s
	// calMinRuns is the fewest kernel runs a window needs; with fewer, the
	// whole run's are used.
	calMinRuns = 20
	// calKeep is the share of the fastest kernel runs a scale averages:
	// the slowest runs are the ones the scheduler or a collection
	// interrupted.
	calKeep = 0.95
)

// calRun is one run of the calibration kernel: when it ended, in seconds
// on the child's span clock, how long it took, in seconds, and the
// child's resident set right after it, in MB.
type calRun struct {
	T   float64
	D   float64
	RSS float64
}

// calibrator holds the kernel's map, allocated once: clearing a map keeps
// its storage, so running the kernel allocates nothing and leaves the
// collector's pacing to the workload.
type calibrator struct {
	m    map[uint64]uint32
	sink uint64
}

func newCalibrator() *calibrator {
	return &calibrator{m: make(map[uint64]uint32, calKeys)}
}

// once runs the kernel and returns its time.
func (c *calibrator) once() time.Duration {
	start := time.Now()
	clear(c.m)
	rng := uint64(0x2545F4914F6CDD1D)
	for i := range calKeys {
		rng = xorshift(rng)
		c.m[rng%(4*calKeys)] = uint32(i)
	}
	var acc uint64
	for range calKeys {
		rng = xorshift(rng)
		acc += uint64(c.m[rng%(4*calKeys)])
	}
	c.sink += acc
	return time.Since(start)
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// sampler runs the kernel every calPeriod until stopped. The sampler
// goroutine owns runs and err until done closes.
type sampler struct {
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	runs     []calRun
	err      error
}

// startSampler starts the kernel; t0 is the start of the child's span
// clock.
func startSampler(t0 time.Time) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	cal := newCalibrator()
	cal.once() // warm-up: the map grows to its size here
	go func() {
		defer close(s.done)
		tick := time.NewTicker(calPeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				d := cal.once()
				rss, err := residentMB()
				if err != nil {
					s.err = err
					return
				}
				s.runs = append(s.runs, calRun{T: time.Since(t0).Seconds(), D: d.Seconds(), RSS: rss})
			}
		}
	}()
	return s
}

// Stop stops the sampler, waits for its goroutine to exit and returns the
// kernel runs, or the error that stopped it early. It may be called more
// than once.
func (s *sampler) Stop() ([]calRun, error) {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
	return s.runs, s.err
}

// residentMB reads this process's resident set from /proc.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b)) // size resident shared text lib data dt, in pages
	if len(f) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return pages * float64(os.Getpagesize()) / 1e6, nil
}

// scaleOf is the factor that turns times measured while runs ran into
// seconds at the reference host speed; 1 without runs.
func scaleOf(runs []calRun) float64 {
	if len(runs) == 0 {
		return 1
	}
	d := make([]float64, len(runs))
	for i, r := range runs {
		d[i] = r.D
	}
	sort.Float64s(d)
	d = d[:max(1, int(calKeep*float64(len(d))))]
	var sum float64
	for _, x := range d {
		sum += x
	}
	return math.Pow(calibrationRef/(sum/float64(len(d))), calExponent)
}

// scaleBetween is the scale for times measured from from to to (seconds
// on the span clock): that of the kernel runs within calWindow of the
// interval, or of all runs when the window holds fewer than calMinRuns.
func scaleBetween(runs []calRun, from, to float64) float64 {
	var in []calRun
	for _, r := range runs {
		if r.T >= from-calWindow && r.T <= to+calWindow {
			in = append(in, r)
		}
	}
	if len(in) < calMinRuns {
		in = runs
	}
	return scaleOf(in)
}

// iterScales returns the scale of each iteration of rep, from the time
// its spans cover; an iteration without spans scales by 1.
func iterScales(rep *childReport) func(iter int) float64 {
	type interval struct{ from, to float64 }
	ivs := map[int]interval{}
	for _, s := range rep.Spans {
		iv, ok := ivs[s.Iter]
		if !ok {
			iv = interval{s.Start, s.End}
		}
		ivs[s.Iter] = interval{min(iv.from, s.Start), max(iv.to, s.End)}
	}
	scales := make(map[int]float64, len(ivs))
	for it, iv := range ivs {
		scales[it] = scaleBetween(rep.Cal, iv.from, iv.to)
	}
	return func(iter int) float64 {
		if k, ok := scales[iter]; ok {
			return k
		}
		return 1
	}
}
