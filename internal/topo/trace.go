package topo

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sort"

	"repro/internal/asn"
	"repro/internal/traceroute"
)

// VP is one traceroute vantage point: a measurement host inside an AS.
type VP struct {
	Name string
	AS   *AS
	Src  netip.Addr
}

// SelectVPs picks n vantage points in distinct ASes, excluding the given
// ASes (the ground-truth networks are excluded in §7.2/§7.3) plus
// firewalled and BGP-silent networks (a VP needs working connectivity).
func (in *Internet) SelectVPs(n int, exclude asn.Set) []VP {
	rng := rand.New(rand.NewSource(in.Cfg.Seed ^ 0x5650))
	var pool []*AS
	for _, a := range in.ASList {
		if exclude.Has(a.ASN) || a.Firewalled || a.ReallocSilent || a.Hidden {
			continue
		}
		// Monitors live in multi-router networks (universities, ISPs,
		// datacenters), not single-router stubs.
		if a.Type == Stub {
			continue
		}
		pool = append(pool, a)
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if n > len(pool) {
		n = len(pool)
	}
	vps := make([]VP, 0, n)
	for _, a := range pool[:n] {
		vps = append(vps, VP{
			Name: fmt.Sprintf("vp-%d", a.ASN),
			AS:   a,
			Src:  a.Hosts[0],
		})
	}
	sort.Slice(vps, func(i, j int) bool { return vps[i].AS.ASN < vps[j].AS.ASN })
	return vps
}

// VPIn returns a vantage point inside a specific AS (the in-network
// bdrmap scenario of §7.1).
func (in *Internet) VPIn(a asn.ASN) (VP, bool) {
	as, ok := in.ASes[a]
	if !ok {
		return VP{}, false
	}
	return VP{Name: fmt.Sprintf("vp-%d", a), AS: as, Src: as.Hosts[0]}, true
}

// Targets returns the probe destination list: every AS's host addresses,
// plus one probe into each silently-covered reallocated block
// (representing the every-routed-/24 sweeps of bdrmap and the ITDK).
func (in *Internet) Targets() []netip.Addr {
	var out []netip.Addr
	for _, a := range in.ASList {
		out = append(out, a.Hosts...)
		if a.ReallocFrom != nil {
			out = append(out, a.silentTarget())
		}
	}
	return out
}

// silentTarget is a host address inside the reallocated block's second
// /24, which is never announced by the customer (only the provider's
// covering route exists).
func (a *AS) silentTarget() netip.Addr {
	b := a.ReallocPrefix.Addr().As4()
	return netip.AddrFrom4([4]byte{b[0], b[1], b[2] + 1, 250})
}

// hopPoint is one router on the forward path and the interface the
// probe arrives on (nil for the first router, which replies with its
// loopback).
type hopPoint struct {
	r       *Router
	ingress *Iface
}

// routerPath expands an AS-level path to the router-level forward path
// toward dst. It returns nil when any crossing is not realized.
func (in *Internet) routerPath(aspath []asn.ASN, dst netip.Addr) []hopPoint {
	if len(aspath) == 0 {
		return nil
	}
	var out []hopPoint
	src := in.ASes[aspath[0]]
	cur := src.Cores[0]
	out = append(out, hopPoint{r: cur})

	for i := 0; i+1 < len(aspath); i++ {
		x := in.ASes[aspath[i]]
		y := in.ASes[aspath[i+1]]
		e := in.edges[pairKey(x.ASN, y.ASN)]
		if e == nil {
			return nil
		}
		egress := x.Borders[y.ASN]
		// Intra-AS hops from cur to the egress border.
		out = appendIntraPath(out, cur, egress)
		// Cross the interdomain link: the next hop is y's border router,
		// replying from its interface on the link.
		var yIface *Iface
		if e.A == y {
			yIface = e.AIface
		} else {
			yIface = e.BIface
		}
		out = append(out, hopPoint{r: yIface.Router, ingress: yIface})
		cur = yIface.Router
	}
	// Final AS: reach the device owning dst.
	dstIface, ok := in.IfaceByAddr[dst]
	var dstRouter *Router
	if ok {
		dstRouter = dstIface.Router
	} else {
		// Silent-block target: the customer's host device.
		owner := in.AddrOwnerAS(dst)
		if owner == nil {
			return nil
		}
		dstRouter = owner.Host
	}
	return appendIntraPath(out, cur, dstRouter)
}

// appendIntraPath appends to out the hops strictly after from, ending
// at to: a breadth-first walk of the AS-internal adjacency, neighbours
// in ascending router ID. Nothing is appended when to is unreachable.
func appendIntraPath(out []hopPoint, from, to *Router) []hopPoint {
	if from == to {
		return out
	}
	// queue holds each reached router, the interface it was reached on
	// and its parent's queue index; seen is indexed by a router's place
	// in its AS. Both stay on the stack for ASes of up to 64 routers.
	type step struct {
		hopPoint
		parent int
	}
	var seenBuf [64]bool
	var queueBuf [64]step
	seen := seenBuf[:]
	if n := int(from.Owner.nrouters); n > len(seen) {
		seen = make([]bool, n)
	}
	seen[from.local] = true
	queue := append(queueBuf[:0], step{hopPoint{r: from}, -1})
	for head := 0; head < len(queue); head++ {
		for _, h := range queue[head].r.intra {
			if seen[h.r.local] {
				continue
			}
			seen[h.r.local] = true
			queue = append(queue, step{h, head})
			if h.r != to {
				continue
			}
			start := len(out)
			for q := len(queue) - 1; q > 0; q = queue[q].parent {
				out = append(out, queue[q].hopPoint)
			}
			slices.Reverse(out[start:])
			return out
		}
	}
	return out
}

// Traceroute simulates one ICMP Paris traceroute from vp to dst,
// reproducing the reply behaviours the heuristics must handle.
func (in *Internet) Traceroute(vp VP, dst netip.Addr, rng *rand.Rand) *traceroute.Trace {
	owner := in.AddrOwnerAS(dst)
	if owner == nil {
		return nil
	}
	aspath, ok := in.ASPathTo(vp.AS.ASN, owner.ASN)
	if !ok {
		return nil
	}
	hops := in.routerPath(aspath, dst)
	if hops == nil {
		return nil
	}
	t := &traceroute.Trace{VP: vp.Name, Src: vp.Src, Dst: dst}

	// Firewalled destinations drop probes past their border router:
	// truncate after the first router owned by the destination AS.
	truncated := false
	if owner.Firewalled {
		for i, hp := range hops {
			if hp.r.Owner == owner {
				hops = hops[:i+1]
				truncated = true
				break
			}
		}
	}
	// Unresponsive destination host: the trace dies at the edge router
	// (the dominant ending of real campaigns). Responsiveness is a
	// property of the destination address, not of the VP, so derive it
	// from the address alone.
	if !truncated {
		dr := in.dstRouter(dst, owner)
		if len(hops) > 0 && hops[len(hops)-1].r == dr &&
			hostRNG(in.Cfg.Seed, dst) < in.Cfg.PHostUnresponsive {
			hops = hops[:len(hops)-1]
			truncated = true
		}
	}

	ttl := uint8(0)
	for i, hp := range hops {
		ttl++
		last := i == len(hops)-1
		isDst := last && !truncated && hp.r == in.dstRouter(dst, owner)
		if hp.r.Unresponsive && !isDst {
			continue
		}
		if !isDst && rng.Float64() < in.Cfg.PUnresponsive {
			continue
		}
		var addr netip.Addr
		reply := traceroute.TimeExceeded
		switch {
		case isDst:
			reply = traceroute.EchoReply
			addr = dst
			if rng.Float64() < in.Cfg.PEchoOffPath && len(hp.r.Ifaces) > 1 {
				// Off-path echo: reply sourced from another interface of
				// the destination device.
				for _, f := range hp.r.Ifaces {
					if f.Addr != dst {
						addr = f.Addr
						break
					}
				}
			}
		case hp.r.ThirdPartyIface != nil && rng.Float64() < 0.4:
			// Asymmetric reply: this router sometimes sources replies
			// from a fixed off-path interface instead of the ingress.
			addr = hp.r.ThirdPartyIface.Addr
		case hp.ingress != nil:
			addr = hp.ingress.Addr
		default:
			addr = hp.r.Ifaces[0].Addr // first hop: loopback
		}
		t.Hops = append(t.Hops, traceroute.Hop{
			Addr:      addr,
			ProbeTTL:  ttl,
			Reply:     reply,
			RTTMillis: float32(ttl)*0.8 + float32(rng.Float64()*2),
		})
	}
	switch {
	case t.ReachedDst():
		t.Stop = traceroute.StopCompleted
	case truncated:
		t.Stop = traceroute.StopGapLimit
	default:
		t.Stop = traceroute.StopGapLimit
	}
	return t
}

// dstRouter resolves the device that answers for dst.
func (in *Internet) dstRouter(dst netip.Addr, owner *AS) *Router {
	if i, ok := in.IfaceByAddr[dst]; ok {
		return i.Router
	}
	return owner.Host
}

func addrSeed(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// hostRNG returns a deterministic uniform [0,1) value per destination
// address, so a host's (un)responsiveness is consistent across VPs.
func hostRNG(seed int64, dst netip.Addr) float64 {
	x := uint64(seed) ^ uint64(addrSeed(dst))*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return float64(x>>11) / float64(1<<53)
}
