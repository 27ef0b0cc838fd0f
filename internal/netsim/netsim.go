// Package netsim is a packet-level network simulator in the spirit of the
// NS3-RDMA models used by the DCQCN line of work and by the paper's
// evaluation: store-and-forward switches with per-egress-port FIFO
// queues, RED-style ECN marking (the DCQCN congestion point), PFC
// XOFF/XON flow control for losslessness, ECMP routing over arbitrary
// topologies (a Clos builder matching the paper's testbed is provided),
// and host NICs that pace per-flow traffic under DCQCN reaction-point
// control.
//
// The unit conventions: rates are bits/second, sizes are bytes, time is
// sim.Time (nanoseconds).
package netsim

import (
	"fmt"

	"srcsim/internal/ccaimd"
	"srcsim/internal/dcqcn"
	"srcsim/internal/hpcc"
	"srcsim/internal/pfconly"
	"srcsim/internal/sim"
	"srcsim/internal/timely"
)

// CCAlg selects the congestion-control algorithm new flows run. Each
// value resolves through the CC registry (ccregistry.go) to a
// registered CCScheme.
type CCAlg int

const (
	// CCDCQCN is the paper's baseline (ECN/CNP-driven), the default.
	CCDCQCN CCAlg = iota
	// CCTIMELY is the delay-based alternative; flows request per-packet
	// acknowledgements for RTT sampling.
	CCTIMELY
	// CCNone disables rate control: flows pace at line rate and only
	// PFC restrains them (ablation baseline).
	CCNone
	// CCAIMD is the ECN-fraction AIMD "oversubscribed CC" (REPS-style):
	// per-ack ECN echo feeds an EWMA congestion level, decreases are
	// proportional to the overshoot above the target level.
	CCAIMD
	// CCHPCC is the in-network-telemetry scheme: data packets carry an
	// INT header stamped at every switch hop, and the sender aligns to
	// the bottleneck hop's measured utilisation.
	CCHPCC
	// CCPFC is the PFC/RCM baseline: a static rate-control module
	// (fixed cut, linear recovery) with PFC doing the heavy lifting.
	CCPFC
)

// String implements fmt.Stringer.
func (a CCAlg) String() string {
	switch a {
	case CCDCQCN:
		return "DCQCN"
	case CCTIMELY:
		return "TIMELY"
	case CCNone:
		return "none"
	case CCAIMD:
		return "AIMD"
	case CCHPCC:
		return "HPCC"
	case CCPFC:
		return "PFC"
	default:
		return fmt.Sprintf("CCAlg(%d)", int(a))
	}
}

// RateController is the per-flow reaction point a sender paces from.
// dcqcn.RP and timely.RP implement it; CCNone uses a fixed-rate stub.
type RateController interface {
	// Rate returns the current pacing rate in bits/s.
	Rate() float64
	// OnBytesSent feeds transmitted payload bytes (byte-counter clocks).
	OnBytesSent(n int)
	// OnCongestionSignal delivers an explicit congestion notification
	// (a CNP for this flow).
	OnCongestionSignal()
	// OnAck delivers one RTT sample (only called when NeedsAck).
	OnAck(rtt sim.Time)
	// NeedsAck reports whether the receiver should acknowledge every
	// data packet for RTT measurement.
	NeedsAck() bool
	// SetRateListener registers the observer invoked on every rate
	// change (old, new in bits/s) — SRC's congestion-event source.
	SetRateListener(fn func(oldRate, newRate float64))
}

// Fabric constants: the data-packet payload size mtu, the wire size of
// CNP, PFC and ack frames, and the per-ingress PFC pause (Xoff) and
// resume (Xon) thresholds in bytes.
const (
	mtu            = 4096
	ctrlPacketSize = 64
	pfcXoff        = 128 << 10
	pfcXon         = 96 << 10
)

// Config parameterises the fabric.
type Config struct {
	// DCQCN carries the congestion-control constants (CP marking, RP/NP
	// behaviour). DCQCN.LineRate is used as the default link rate.
	DCQCN dcqcn.Config
	// CC selects the congestion-control algorithm for new flows
	// (default CCDCQCN), resolved through the CC registry; the TIMELY,
	// AIMD, HPCC, and PFC blocks carry the per-scheme constants. A
	// scheme block's unset LineRate defaults to DCQCN.LineRate.
	CC     CCAlg
	TIMELY timely.Config
	AIMD   ccaimd.Config
	HPCC   hpcc.Config
	PFC    pfconly.Config
	// DisablePFC and DisableECN switch off the respective mechanisms
	// (for ablations).
	DisablePFC bool
	DisableECN bool
	// Seed drives ECN marking randomness.
	Seed uint64
	// PFCWatchdog, when positive, bounds how long a port may stay
	// PFC-paused: a pause persisting beyond the threshold (a storm or
	// deadlock signal, e.g. a lost resume frame) trips the watchdog,
	// which counts the trip and force-resumes the port — the recovery
	// real NICs implement as a PFC storm watchdog. Zero (the default)
	// disables the watchdog and preserves pre-fault behaviour exactly.
	PFCWatchdog sim.Time
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	c.DCQCN = c.DCQCN.WithDefaults()
	return c
}

// Validate reports inconsistent settings. An unknown CC algorithm is an
// error here (not a silent fallthrough to DCQCN), and the selected
// scheme's own config block is validated with its LineRate resolved
// uniformly from DCQCN.LineRate.
func (c Config) Validate() error {
	c = c.WithDefaults()
	if err := c.DCQCN.Validate(); err != nil {
		return err
	}
	sch, ok := LookupCC(c.CC)
	if !ok {
		return fmt.Errorf("netsim: unknown congestion-control algorithm %v (registered: %v)", c.CC, CCNames())
	}
	if sch.Validate != nil {
		if err := sch.Validate(&c); err != nil {
			return err
		}
	}
	return nil
}

// NodeID identifies a node within one Network.
type NodeID int

// Kind labels a packet's role.
type Kind uint8

// Packet kinds.
const (
	Data Kind = iota
	CNP
	Ack
	PauseFrame
	ResumeFrame
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case CNP:
		return "cnp"
	case Ack:
		return "ack"
	case PauseFrame:
		return "pause"
	case ResumeFrame:
		return "resume"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Packet is one unit on the wire. A single Packet value moves hop by hop
// (the simulator never duplicates it).
type Packet struct {
	Src, Dst NodeID
	FlowID   int
	MsgID    uint64
	MsgSize  int
	Size     int
	Kind     Kind
	ECN      bool
	Last     bool
	// SentAt is the transmission timestamp for RTT measurement (echoed
	// in Ack frames).
	SentAt sim.Time
	// Corrupted marks a frame damaged on the wire (fault injection); the
	// next hop discards it on the FCS check instead of processing it.
	Corrupted bool
	// Payload rides only on the last packet of a message and is handed
	// to the receiver's OnMessage callback.
	Payload any
	// INT is the in-network-telemetry header (CCHPCC flows only):
	// attached by the sender to data packets, stamped with one hop
	// record per switch, moved onto the acknowledgement by the
	// receiver, and consumed by the sender's INTObserver. It rides as
	// metadata — Size is unchanged, so reassembly and queue accounting
	// are unaffected.
	INT *hpcc.INTHeader

	ingress *Port // per-hop PFC attribution at the current switch

	// tx and rx carry the packet's current port through the two hot-path
	// engine events (serialisation done, propagation done) so those
	// continuations are static functions taking the packet itself instead
	// of per-packet closures.
	tx *Port
	rx *Port
}
