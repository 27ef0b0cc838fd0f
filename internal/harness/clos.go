package harness

import (
	"fmt"
	"io"

	"srcsim/internal/netsim"
	"srcsim/internal/nvme"
	"srcsim/internal/nvmeof"
	"srcsim/internal/sim"
	"srcsim/internal/ssd"
	"srcsim/internal/trace"
	"srcsim/internal/workload"
)

// closActivePairs is how many of the fabric's 128 initiator/target
// pairs carry traffic in ClosScale; activating all of them would cost
// minutes per run without exercising anything new.
const closActivePairs = 16

// ClosScaleResult is the outcome of a full-fabric ClosScale run.
type ClosScaleResult struct {
	Hosts        int      `json:"hosts"`
	Nodes        int      `json:"nodes"`
	SimTime      sim.Time `json:"sim_time_ns"`
	Events       uint64   `json:"events"`
	Submitted    int      `json:"submitted"`
	Completed    int      `json:"completed"`
	ECNMarks     uint64   `json:"ecn_marks"`
	CNPs         uint64   `json:"cnps"`
	PFCPauses    uint64   `json:"pfc_pauses"`
	ReadsServed  uint64   `json:"reads_served"`
	WritesServed uint64   `json:"writes_served"`
}

// ClosScale runs the paper's full testbed topology (Sec. IV-A): a Clos
// fabric of 4 pods × (2 leaf + 4 ToR switches) and 256 hosts at 40 Gbps,
// half initiators and half targets. closActivePairs pairs, spread
// across ToRs with each target on the far side of the fabric, replay
// their own VDI-like stream (requests per direction) against a
// full-geometry SSD-A for 2 s of fabric time.
func ClosScale(requests int) (*ClosScaleResult, error) {
	eng := sim.NewEngine()
	net, err := netsim.NewNetwork(eng, netsim.Config{Seed: 1})
	if err != nil {
		return nil, err
	}
	hosts := netsim.BuildClos(net, netsim.ClosSpec{})
	res := &ClosScaleResult{Hosts: len(hosts), Nodes: len(net.Nodes())}

	tgts := make([]*nvmeof.Target, 0, closActivePairs)
	for p := 0; p < closActivePairs; p++ {
		iniHost := hosts[p*8]
		tgtHost := hosts[len(hosts)-1-p*8]
		arb := nvme.NewSSQ(1, 1)
		dev, err := ssd.New(eng, ssd.ConfigA(), arb)
		if err != nil {
			return nil, err
		}
		tgt := nvmeof.NewTarget(net, tgtHost, []nvmeof.Unit{{Dev: dev, Arb: arb}}, 0)
		ini := nvmeof.NewInitiator(net, eng, iniHost)
		ini.OnComplete = func(trace.Request, bool, sim.Time) { res.Completed++ }
		tgts = append(tgts, tgt)

		tr, err := workload.VDILike(uint64(100+p), requests)
		if err != nil {
			return nil, err
		}
		res.Submitted += tr.Len()
		for _, r := range tr.Requests {
			r := r
			eng.Schedule(r.Arrival, func() { ini.Submit(r, tgt.Node) })
		}
	}

	eng.Run(2 * sim.Second)
	res.SimTime, res.Events = eng.Now(), eng.Processed
	res.ECNMarks, res.CNPs, res.PFCPauses = net.ECNMarks, net.CNPsSent, net.PFCPauses
	for _, t := range tgts {
		res.ReadsServed += t.ReadsServed
		res.WritesServed += t.WritesServed
	}
	return res, nil
}

// FprintClosScale renders a ClosScale run.
func FprintClosScale(w io.Writer, r *ClosScaleResult) {
	fmt.Fprintf(w, "built Clos fabric: %d hosts, %d nodes\n", r.Hosts, r.Nodes)
	fmt.Fprintf(w, "simulated %v of fabric time (%d events)\n", r.SimTime, r.Events)
	fmt.Fprintf(w, "requests completed: %d/%d\n", r.Completed, r.Submitted)
	fmt.Fprintf(w, "fabric counters: ECN marks %d, CNPs %d, PFC pauses %d\n",
		r.ECNMarks, r.CNPs, r.PFCPauses)
	fmt.Fprintf(w, "targets served: %d reads, %d writes\n", r.ReadsServed, r.WritesServed)
}
