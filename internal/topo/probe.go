package topo

import (
	"math/rand"
	"net/netip"

	"repro/internal/traceroute"
)

// Prober adapts the Internet to the alias-resolution probing interfaces
// (alias.IPIDProber and alias.UDPProber). It models the router-level
// behaviours the real techniques exploit: a shared monotonic IP-ID
// counter per router (MIDAR) and a fixed UDP reply source (iffinder).
type Prober struct {
	in *Internet
}

// Prober returns the probing view of the Internet.
func (in *Internet) Prober() *Prober { return &Prober{in: in} }

// ProbeIPID samples addr's IP-ID counter at virtual time t. Routers
// without a shared monotonic counter (per-interface or randomized
// IP-IDs) report ok=false, as MIDAR's estimation stage would discard
// them.
func (p *Prober) ProbeIPID(addr netip.Addr, t int) (uint16, bool) {
	i, ok := p.in.IfaceByAddr[addr]
	if !ok {
		return 0, false
	}
	r := i.Router
	if !r.IPIDShared || r.Unresponsive {
		return 0, false
	}
	return r.IPIDBase + uint16(int(r.IPIDVelocity*float64(t))), true
}

// ProbeUDP sends a UDP probe to a high closed port and returns the
// source address of the ICMP Port Unreachable reply.
func (p *Prober) ProbeUDP(addr netip.Addr) (netip.Addr, bool) {
	i, ok := p.in.IfaceByAddr[addr]
	if !ok {
		return netip.Addr{}, false
	}
	r := i.Router
	if r.Unresponsive {
		return netip.Addr{}, false
	}
	if r.UDPCanonical.IsValid() {
		return r.UDPCanonical, true
	}
	return addr, true
}

// Engine binds a vantage point to the Internet as a reactive-collection
// probing substrate (traceroutes plus alias probing), the interface the
// collect package consumes. An Engine is not safe for concurrent use.
type Engine struct {
	in     *Internet
	vp     VP
	prober *Prober
	rng    *rand.Rand
}

// Engine returns the probing engine for one vantage point.
func (in *Internet) Engine(vp VP) *Engine {
	return &Engine{in: in, vp: vp, prober: in.Prober(), rng: newProbeRNG()}
}

// Traceroute probes dst from the engine's vantage point with the same
// deterministic per-(vp, dst) randomness the campaign runner uses.
func (e *Engine) Traceroute(dst netip.Addr) *traceroute.Trace {
	return e.in.probe(e.vp, dst, e.rng)
}

// ProbeIPID implements alias.IPIDProber.
func (e *Engine) ProbeIPID(addr netip.Addr, t int) (uint16, bool) {
	return e.prober.ProbeIPID(addr, t)
}

// ProbeUDP implements alias.UDPProber.
func (e *Engine) ProbeUDP(addr netip.Addr) (netip.Addr, bool) {
	return e.prober.ProbeUDP(addr)
}
