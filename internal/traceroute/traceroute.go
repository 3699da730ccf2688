// Package traceroute defines the traceroute path model bdrmapIT consumes
// and streaming codecs for two serializations: a scamper-like JSON-lines
// form and a compact binary form for large archived campaigns. Only the
// fields the inference heuristics use are modelled: per-hop source
// address, probe TTL, ICMP reply type, and the probe's destination.
package traceroute

import (
	"fmt"
	"net/netip"
)

// ReplyType is the ICMP reply class of a traceroute response. The class
// drives the link-confidence labels of paper §4.2: Time Exceeded and
// Destination Unreachable indicate the reply interface was on the probed
// path, while Echo Reply only indicates the address is on the responding
// router.
type ReplyType uint8

const (
	// TimeExceeded is ICMP type 11: the standard mid-path reply.
	TimeExceeded ReplyType = iota
	// EchoReply is ICMP type 0: the destination (or an off-path
	// interface of it) answered the probe.
	EchoReply
	// DestUnreachable is ICMP type 3.
	DestUnreachable
)

// String returns the conventional name of the reply type.
func (rt ReplyType) String() string {
	switch rt {
	case TimeExceeded:
		return "time-exceeded"
	case EchoReply:
		return "echo-reply"
	case DestUnreachable:
		return "dest-unreachable"
	default:
		return fmt.Sprintf("reply-type-%d", uint8(rt))
	}
}

// ICMPType returns the ICMP type number (v4 semantics).
func (rt ReplyType) ICMPType() uint8 {
	switch rt {
	case TimeExceeded:
		return 11
	case EchoReply:
		return 0
	case DestUnreachable:
		return 3
	default:
		return 255
	}
}

// ReplyTypeFromICMP maps an ICMP type number to a ReplyType.
func ReplyTypeFromICMP(t uint8) (ReplyType, error) {
	rt, ok := replyFromICMP(t)
	if !ok {
		return 0, fmt.Errorf("traceroute: unsupported ICMP type %d", t)
	}
	return rt, nil
}

// replyFromICMP is ReplyTypeFromICMP without the error value, for the
// decoders, which drop or count such hops by the thousand.
func replyFromICMP(t uint8) (ReplyType, bool) {
	switch t {
	case 11:
		return TimeExceeded, true
	case 0:
		return EchoReply, true
	case 3:
		return DestUnreachable, true
	default:
		return 0, false
	}
}

// defined reports whether rt is one of the declared reply classes.
func (rt ReplyType) defined() bool { return rt <= DestUnreachable }

// Hop is one responsive traceroute hop. Unresponsive probes produce no
// Hop; gaps are visible as jumps in ProbeTTL.
type Hop struct {
	// Addr is the source address of the ICMP reply.
	Addr netip.Addr
	// ProbeTTL is the TTL of the probe that elicited the reply (hop
	// distance from the vantage point, starting at 1).
	ProbeTTL uint8
	// Reply is the ICMP reply class.
	Reply ReplyType
	// RTTMillis is the measured round-trip time in milliseconds.
	RTTMillis float32
}

// StopReason records why probing stopped.
type StopReason uint8

const (
	// StopCompleted means the destination replied.
	StopCompleted StopReason = iota
	// StopGapLimit means consecutive unresponsive hops exceeded the gap
	// limit (the firewalled-edge signature of paper §5).
	StopGapLimit
	// StopUnreach means a Destination Unreachable ended the trace.
	StopUnreach
	// StopLoop means a forwarding loop was detected.
	StopLoop
)

// String returns the scamper-style stop-reason name.
func (s StopReason) String() string {
	switch s {
	case StopCompleted:
		return "COMPLETED"
	case StopGapLimit:
		return "GAPLIMIT"
	case StopUnreach:
		return "UNREACH"
	case StopLoop:
		return "LOOP"
	default:
		return fmt.Sprintf("STOP-%d", uint8(s))
	}
}

// ParseStopReason inverts StopReason.String.
func ParseStopReason(s string) (StopReason, error) {
	stop, ok := lookupStop(s)
	if !ok {
		return 0, fmt.Errorf("traceroute: unknown stop reason %q", s)
	}
	return stop, nil
}

func lookupStop(s string) (StopReason, bool) {
	switch s {
	case "COMPLETED":
		return StopCompleted, true
	case "GAPLIMIT":
		return StopGapLimit, true
	case "UNREACH":
		return StopUnreach, true
	case "LOOP":
		return StopLoop, true
	default:
		return 0, false
	}
}

// defined reports whether s is one of the declared stop reasons.
func (s StopReason) defined() bool { return s <= StopLoop }

// Trace is one traceroute measurement: a vantage point, a probed
// destination, and the responsive hops in probe-TTL order.
type Trace struct {
	// VP names the vantage point that ran the measurement.
	VP string
	// Src is the vantage point's source address.
	Src netip.Addr
	// Dst is the probed destination address.
	Dst netip.Addr
	// Hops are the responsive hops, ascending by ProbeTTL.
	Hops []Hop
	// Stop is why probing ended.
	Stop StopReason
}

// Validate checks structural invariants: hops ascend strictly in
// ProbeTTL and carry valid addresses.
func (t *Trace) Validate() error {
	if !t.Dst.IsValid() {
		return fmt.Errorf("traceroute: trace has invalid destination")
	}
	last := -1
	for i, h := range t.Hops {
		if !h.Addr.IsValid() {
			return fmt.Errorf("traceroute: hop %d has invalid address", i)
		}
		if int(h.ProbeTTL) <= last {
			return fmt.Errorf("traceroute: hop %d TTL %d not ascending (prev %d)", i, h.ProbeTTL, last)
		}
		last = int(h.ProbeTTL)
	}
	return nil
}

// LastHop returns the final responsive hop, or nil for an empty trace.
func (t *Trace) LastHop() *Hop {
	if len(t.Hops) == 0 {
		return nil
	}
	return &t.Hops[len(t.Hops)-1]
}

// ReachedDst reports whether the final hop's address equals the probed
// destination.
func (t *Trace) ReachedDst() bool {
	h := t.LastHop()
	return h != nil && h.Addr == t.Dst
}

// interner deduplicates vantage-point names across the traces of one
// reader, JSONL or binary: a campaign has a handful of VPs and would
// otherwise allocate the same few names once per trace.
type interner map[string]string

// maxInterned bounds the table against input that names a fresh VP in
// every record; names past it are allocated as they come.
const maxInterned = 4096

func (in interner) intern(b []byte) string {
	if s, ok := in[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(in) < maxInterned {
		in[s] = s
	}
	return s
}
