package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"srcsim/internal/cluster"
	"srcsim/internal/core"
	"srcsim/internal/devrun"
	"srcsim/internal/harness"
	"srcsim/internal/netsim"
	"srcsim/internal/scenario"
)

func TestGoldenCoversEveryWorkload(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.SHA256) != len(workloads) {
		t.Errorf("golden.json has %d digests for %d workloads", len(g.SHA256), len(workloads))
	}
	for _, w := range workloads {
		if len(g.SHA256[w.Name]) != 64 {
			t.Errorf("golden.json: no SHA-256 for %s", w.Name)
		}
	}
}

// TestClusterIterationMatchesHarness checks, at reduced size, that the
// benchmark's own New+Run sequence, t=0 probe event and engine profiling
// included, gives the digests of the harness experiments it stands for.
func TestClusterIterationMatchesHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("trains (or loads from the model cache) a TPM and runs twelve small cluster simulations")
	}
	tpm, _, err := harness.TrainCongestionTPMCached(devrun.TPMCacheFromEnv(), trainCount, 42)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tpm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadTPM(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7

	fig7, err := harness.Fig7Throughput(loaded, 150, seed)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := scenario.Lookup("ai-checkpoint-burst")
	ckpt, err := harness.RunScenario(loaded, sc.Build(seed, 300), seed, netsim.CCHPCC)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		w    *workload
		want []cluster.Digest
	}{
		{&workload{Name: "fig7", input: vdiInput(150)}, []cluster.Digest{fig7.Baseline.Digest(), fig7.SRC.Digest()}},
		{&workload{Name: "ckpt", input: checkpointInput(300)}, []cluster.Digest{ckpt.Baseline, ckpt.SRC}},
	} {
		want, err := digestHash(c.want...)
		if err != nil {
			t.Fatal(err)
		}
		for _, profile := range []bool{false, true} {
			out, err := iterate(c.w, seed, buf.Bytes(), profile, newRecorder())
			if err != nil {
				t.Fatal(err)
			}
			ck, err := check(out)
			if err != nil {
				t.Fatal(err)
			}
			if ck.digest != want {
				t.Errorf("%s (engine profiling %v): digest %s, harness gives %s", c.w.Name, profile, ck.digest, want)
			}
			if profile && ck.events["netsim"] == 0 {
				t.Errorf("%s: no netsim callbacks counted with engine profiling on", c.w.Name)
			}
		}
	}
}

// TestTrainIterationMatchesHarness checks that a tpm-train iteration
// hashes the saved bytes of harness.TrainCongestionTPM's model.
func TestTrainIterationMatchesHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two TPMs cold")
	}
	const seed = 11
	tpm, _, err := harness.TrainCongestionTPM(trainCount, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tpm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	w, _ := lookupWorkload("tpm-train")
	out, err := iterate(w, seed, nil, false, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	ck, err := check(out)
	if err != nil {
		t.Fatal(err)
	}
	if want := hex.EncodeToString(sum[:]); ck.digest != want {
		t.Errorf("tpm-train digest %s, harness model hashes to %s", ck.digest, want)
	}
}
