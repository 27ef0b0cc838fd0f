// Package sweep is the campaign orchestrator: it expands a declarative
// CampaignSpec (named experiments plus parameter grids) into a
// deterministic job list, runs the jobs on a shared worker pool —
// parallel across jobs, every simulation still single-threaded — and
// persists per-job artifacts, a crash-safe resume manifest, and a
// byte-stable aggregate report.
//
// Determinism contract: expansion is a pure function of the spec, and
// each job's output is a pure function of (experiment, resolved params,
// shared trained model). That is what makes the content-addressed
// artifact cache sound and the aggregate report byte-identical across
// serial runs, parallel runs, cache replays, and crash-resume.
package sweep

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"strconv"

	"srcsim/internal/harness"
)

// ExperimentSpec is one campaign entry: a registered experiment, fixed
// parameter overrides, and an optional grid of swept axes. Every
// combination of grid values becomes one job.
type ExperimentSpec struct {
	// Experiment is a registered experiment name (see srcsim -list).
	Experiment string `json:"experiment"`
	// Params overrides declared defaults for every job of this entry.
	Params map[string]string `json:"params,omitempty"`
	// Grid sweeps parameters: one job per element of the cartesian
	// product, axes iterated in sorted-name order.
	Grid map[string][]string `json:"grid,omitempty"`
}

// CampaignSpec is the declarative description of one campaign.
type CampaignSpec struct {
	// Name labels the campaign in reports and manifests.
	Name string `json:"name"`
	// Seed is the campaign master seed; per-job seeds derive from it
	// and the job ID.
	Seed uint64 `json:"seed"`
	// Workers bounds job parallelism (0 = GOMAXPROCS); a nonzero
	// Runner.Workers overrides.
	Workers int `json:"workers,omitempty"`
	// TrainCount is the per-direction request count for shared TPM
	// training (0 = 1500, the srcsim default).
	TrainCount int `json:"train_count,omitempty"`
	// TrainSeed seeds shared TPM training (0 = Seed^0xbeef, mirroring
	// srcsim's derivation).
	TrainSeed uint64 `json:"train_seed,omitempty"`
	// Experiments run in declaration order.
	Experiments []ExperimentSpec `json:"experiments"`
}

// trainCount returns the effective TPM training request count.
func (c *CampaignSpec) trainCount() int {
	if c.TrainCount > 0 {
		return c.TrainCount
	}
	return 1500
}

// trainSeed returns the effective TPM training seed.
func (c *CampaignSpec) trainSeed() uint64 {
	if c.TrainSeed != 0 {
		return c.TrainSeed
	}
	return c.Seed ^ 0xbeef
}

// ParseCampaign decodes a campaign spec, rejecting unknown fields so a
// typo fails loudly instead of silently running defaults.
func ParseCampaign(r io.Reader) (*CampaignSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec CampaignSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("sweep: parse campaign: %w", err)
	}
	if spec.Name == "" {
		return nil, fmt.Errorf("sweep: campaign has no name")
	}
	if len(spec.Experiments) == 0 {
		return nil, fmt.Errorf("sweep: campaign %s has no experiments", spec.Name)
	}
	return &spec, nil
}

// LoadCampaign reads a campaign spec file.
func LoadCampaign(path string) (*CampaignSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	spec, err := ParseCampaign(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// Job is one expanded unit of work: a registered experiment with fully
// resolved parameters. The ID is stable across expansions of the same
// spec, which is what resume and artifact naming key on.
type Job struct {
	// ID is "<entry index>-<experiment>" plus "#<cell index>" when the
	// entry has a grid (e.g. "00-fig7#003").
	ID         string `json:"id"`
	Experiment string `json:"experiment"`
	// Params is the fully resolved parameter set (defaults, overrides,
	// grid cell, derived seed).
	Params harness.Params `json:"params"`
	// Seed is the job's workload seed (0 when the experiment declares
	// no seed parameter).
	Seed uint64 `json:"seed"`
}

// deriveSeed mixes the campaign master seed with the job ID: FNV-1a
// over the ID, xor with the master, then a splitmix64 finalizer so
// adjacent IDs land on decorrelated seeds.
func deriveSeed(campaign uint64, jobID string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(jobID))
	x := campaign ^ h.Sum64()
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Expand turns the spec into its deterministic job list: entries in
// declaration order, grid axes in sorted-name order, each axis's values
// in declaration order with the last axis varying fastest. Unknown
// experiments and parameters fail expansion — before any job runs.
func (c *CampaignSpec) Expand() ([]Job, error) {
	var jobs []Job
	for i, es := range c.Experiments {
		exp, ok := harness.LookupExperiment(es.Experiment)
		if !ok {
			return nil, fmt.Errorf("sweep: entry %d: unknown experiment %q (registered: %v)",
				i, es.Experiment, harness.ExperimentNames())
		}

		axes := make([]string, 0, len(es.Grid))
		for name, vals := range es.Grid {
			if len(vals) == 0 {
				return nil, fmt.Errorf("sweep: entry %d (%s): grid axis %q is empty", i, es.Experiment, name)
			}
			axes = append(axes, name)
		}
		sort.Strings(axes)

		cells := 1
		for _, name := range axes {
			cells *= len(es.Grid[name])
		}

		// Odometer over the grid: index cell -> one value per axis,
		// last axis fastest.
		for cell := 0; cell < cells; cell++ {
			id := fmt.Sprintf("%02d-%s", i, es.Experiment)
			if len(axes) > 0 {
				id = fmt.Sprintf("%s#%03d", id, cell)
			}

			overrides := make(map[string]string, len(es.Params)+len(axes))
			for k, v := range es.Params {
				overrides[k] = v
			}
			rem := cell
			for a := len(axes) - 1; a >= 0; a-- {
				vals := es.Grid[axes[a]]
				overrides[axes[a]] = vals[rem%len(vals)]
				rem /= len(vals)
			}

			// The derived per-job seed applies only when the experiment
			// declares a seed parameter that neither the fixed params
			// nor the grid pins.
			_, declaresSeed := exp.Param("seed")
			_, pinned := overrides["seed"]
			if declaresSeed && !pinned {
				overrides["seed"] = strconv.FormatUint(deriveSeed(c.Seed, id), 10)
			}

			p, err := exp.Resolve(overrides)
			if err != nil {
				return nil, fmt.Errorf("sweep: entry %d (%s): %w", i, es.Experiment, err)
			}

			job := Job{ID: id, Experiment: es.Experiment, Params: p}
			if s, ok := p["seed"]; ok {
				seed, err := strconv.ParseUint(s, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("sweep: entry %d (%s): seed %q: %w", i, es.Experiment, s, err)
				}
				job.Seed = seed
			}
			jobs = append(jobs, job)
		}
	}

	ids := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if ids[j.ID] {
			return nil, fmt.Errorf("sweep: duplicate job ID %s", j.ID)
		}
		ids[j.ID] = true
	}
	return jobs, nil
}
