// Package topo is the measurement substrate for evaluating bdrmapIT: a
// seeded synthetic Internet with an AS-level hierarchy (tier-1 clique,
// transit, access, R&E, and stub networks), ground-truth business
// relationships, a router-level topology per AS, interface addressing
// that follows operational conventions (transit links numbered from the
// provider's space, IXP peering LANs, reallocated prefixes, unannounced
// infrastructure), valley-free policy routing, and a traceroute
// simulator that reproduces the measurement artifacts the bdrmapIT
// heuristics exist to handle: third-party replies, echo-only last hops,
// firewalled edges, hidden ASes, and rate-limited cores.
//
// The paper's evaluation inputs (CAIDA ITDK traceroute campaigns, BGP
// RIBs, RIR delegations, IXP directories, MIDAR/iffinder alias runs,
// and operator ground truth) are all derived from one Internet value,
// with known ground truth for scoring.
package topo

import (
	"fmt"
	"math/rand"
	"net/netip"

	"repro/internal/asn"
	"repro/internal/asrel"
	"repro/internal/bgp"
	"repro/internal/ixp"
	"repro/internal/rir"
)

// ASType classifies networks by role, mirroring the network classes in
// the paper's ground-truth set.
type ASType uint8

const (
	// Tier1 networks form the top clique.
	Tier1 ASType = iota
	// Transit networks sell transit below the clique.
	Transit
	// Access networks are large eyeball/access providers.
	Access
	// RE networks are research-and-education networks.
	RE
	// Stub networks are edge ASes without customers.
	Stub
)

// String names the AS type.
func (t ASType) String() string {
	switch t {
	case Tier1:
		return "tier1"
	case Transit:
		return "transit"
	case Access:
		return "access"
	case RE:
		return "r&e"
	default:
		return "stub"
	}
}

// Config parameterizes generation. The zero value is unusable; start
// from DefaultConfig or SmallConfig.
type Config struct {
	Seed int64

	NumTier1, NumTransit, NumAccess, NumRE, NumStub int
	NumIXPs                                         int

	// HostsPerAS is how many probe-target host addresses each AS gets.
	HostsPerAS int

	// PFirewallStub: probability a stub AS firewalls traceroute past its
	// border router (§5's last-hop scenario).
	PFirewallStub float64
	// PCustomerAddrLink: probability a transit link is numbered from the
	// customer's space instead of the provider's.
	PCustomerAddrLink float64
	// PThirdPartyRouter: probability a router replies with a fixed
	// off-path interface (asymmetric-reply artifact, §6.1.1).
	PThirdPartyRouter float64
	// PUnresponsive: per-hop probability of no reply (rate limiting).
	PUnresponsive float64
	// PEchoOffPath: probability a destination's echo reply is sourced
	// from a different address on the host router (§4.2 Fig. 4).
	PEchoOffPath float64
	// PHostUnresponsive: probability a probed destination host never
	// replies, leaving the edge router as the last responsive hop (the
	// dominant trace ending in real campaigns).
	PHostUnresponsive float64
	// PReallocStub: probability a stub, instead of own space, uses a
	// prefix reallocated from its first provider; the customer announces
	// the more-specific via its other provider when multihomed,
	// otherwise the space is only visible through the provider's
	// covering announcement.
	PReallocStub float64
	// PHiddenTransit: probability a small transit AS becomes "hidden":
	// single border router, provider-side links numbered from the
	// provider, customer-side links numbered from the customer (Fig 12).
	PHiddenTransit float64
	// PInfraRIROnly: probability an AS's infrastructure space is absent
	// from BGP and visible only through RIR delegations (§4.1 fallback).
	PInfraRIROnly float64
	// PUnannouncedLinks: probability an AS numbers internal links from
	// space visible nowhere (the ~0.1% unannounced addresses, §6.1.1).
	PUnannouncedLinks float64
	// PIPIDShared: probability a router uses one monotonic IP-ID counter
	// across interfaces (MIDAR's signal).
	PIPIDShared float64
	// PUDPCanonical: probability a router sources UDP port-unreachable
	// replies from a fixed canonical address (iffinder's signal).
	PUDPCanonical float64
	// PMOAS: probability an AS's host prefix is also announced by a
	// second AS (multi-origin).
	PMOAS float64
	// PIXPLanInBGP: probability an IXP LAN prefix leaks into BGP,
	// originated by a member (the pollution §4.1 defends against).
	PIXPLanInBGP float64

	// Collectors is how many route-collector peer ASes contribute RIB
	// views.
	Collectors int

	// CoreScale multiplies every AS's core-router chain length (values
	// <= 1 mean no scaling). The AS-number plan and the /16-per-AS
	// address plan cap the AS population, so the benchmark ladder's
	// larger rungs grow router counts through longer intra-AS chains
	// instead. Hidden-transit ASes keep their single router — their
	// heuristic depends on it.
	CoreScale int

	// RouteCacheTrees bounds the per-destination routing-tree cache (0 =
	// unbounded). Each cached tree is one int32 per AS, so an unbounded
	// cache costs O(ASes²) memory once a campaign probes every network.
	// Every consumer — RIB export, RunCampaign and StreamCampaign —
	// walks destinations in runs and stays fast under a small bound.
	RouteCacheTrees int

	// EnableIPv6 installs the dual-stack view: every interface, prefix,
	// delegation, and IXP LAN gains an IPv6 twin under a
	// structure-preserving embedding (see ipv6.go), and v6 campaigns
	// become available. Enabling it never perturbs IPv4 results.
	EnableIPv6 bool
}

// DefaultConfig is the evaluation-scale configuration used by the
// benchmark harness (a few hundred ASes, thousands of routers).
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:              seed,
		NumTier1:          8,
		NumTransit:        56,
		NumAccess:         36,
		NumRE:             12,
		NumStub:           300,
		NumIXPs:           6,
		HostsPerAS:        2,
		PFirewallStub:     0.35,
		PCustomerAddrLink: 0.12,
		PThirdPartyRouter: 0.05,
		PUnresponsive:     0.015,
		PEchoOffPath:      0.08,
		PHostUnresponsive: 0.45,
		PReallocStub:      0.08,
		PHiddenTransit:    0.05,
		PInfraRIROnly:     0.06,
		PUnannouncedLinks: 0.02,
		PIPIDShared:       0.8,
		PUDPCanonical:     0.5,
		PMOAS:             0.01,
		PIXPLanInBGP:      0.3,
		Collectors:        10,
		EnableIPv6:        true,
	}
}

// SmallConfig is a fast configuration for unit tests (~50 ASes).
func SmallConfig(seed int64) Config {
	c := DefaultConfig(seed)
	c.NumTier1 = 4
	c.NumTransit = 10
	c.NumAccess = 6
	c.NumRE = 4
	c.NumStub = 30
	c.NumIXPs = 2
	c.Collectors = 5
	return c
}

// AS is one autonomous system with its ground-truth properties.
type AS struct {
	ASN  asn.ASN
	Type ASType

	// Space is the AS's own /16 aggregate (ground truth). Reallocated
	// stubs instead use ReallocPrefix carved from their provider.
	Space netip.Prefix
	// ExtraSpace holds additional /16 aggregates granted when the AS's
	// infrastructure window inside Space is exhausted — only large
	// transit/tier-1 networks at the upper ladder rungs ever need one.
	// Each extra aggregate is announced and RIR-delegated exactly like
	// Space.
	ExtraSpace []netip.Prefix
	// HostPrefix holds the probe-target host addresses.
	HostPrefix netip.Prefix
	// Hosts are the probe-target addresses.
	Hosts []netip.Addr

	Providers, Customers, Peers []*AS
	// pos is the AS's index in Internet.ASList, the coordinate routing
	// trees are stored in. ASList is ascending by ASN, so comparing
	// positions compares ASNs.
	pos int32

	// Behavioural flags (see Config).
	Firewalled    bool
	Hidden        bool
	InfraRIROnly  bool
	UnannLinks    bool
	ReallocFrom   *AS           // non-nil when the AS uses reallocated space
	ReallocPrefix netip.Prefix  // the reallocated block
	ReallocSilent bool          // true: only the provider's covering route exists
	ReallocFlavor ReallocFlavor // how the reallocation appears in BGP
	reallocCount  int           // blocks handed out (when acting as provider)

	// Routers
	Cores      []*Router
	Borders    map[asn.ASN]*Router // neighbour ASN → border router
	Host       *Router             // the destination "host" device
	borderList []*Router
	borderLoad []int

	nrouters int32 // routers created in the AS so far
	// allocation cursors within Space
	nextLinkNet uint32
	nextLoop    uint32
	unannBase   netip.Prefix // per-AS unannounced pool when UnannLinks
}

// Router is one ground-truth router.
type Router struct {
	ID    int
	Owner *AS
	// Ifaces are the router's interfaces.
	Ifaces []*Iface
	// IsHost marks destination host devices.
	IsHost bool

	// Reply behaviour.
	ThirdPartyIface *Iface // non-nil: always replies from this interface
	Unresponsive    bool   // never replies to traceroute (rare)

	// Alias-probing behaviour.
	IPIDShared   bool
	IPIDBase     uint16
	IPIDVelocity float64
	UDPCanonical netip.Addr // valid: sources UDP replies from here

	// nbrIfaces maps an adjacent router to this router's interface on
	// the connecting link (the adjacency used for intra-AS pathfinding
	// and ingress-interface selection).
	nbrIfaces map[*Router]*Iface
	// intra is the same-AS part of nbrIfaces as the intra-AS walk reads
	// it, built by initRouting: each neighbour in ascending ID with the
	// neighbour's interface facing this router, where a probe arrives.
	intra []hopPoint
	// local is the router's index among its AS's routers.
	local int32
}

// connect records that my interface i faces router other.
func (r *Router) connect(other *Router, i *Iface) {
	if r.nbrIfaces == nil {
		r.nbrIfaces = make(map[*Router]*Iface)
	}
	r.nbrIfaces[other] = i
}

// Iface is one router interface.
type Iface struct {
	Addr   netip.Addr
	Router *Router
	// Peer is the interface at the other end of a point-to-point link
	// (nil for loopbacks/host addresses; IXP LAN interfaces use LAN).
	Peer *Iface
	// LAN groups interfaces on a shared IXP peering LAN.
	LAN *IXP
}

// IXP is one exchange point with a peering LAN.
type IXP struct {
	Name    string
	Prefix  netip.Prefix
	Members []*AS
	ports   map[asn.ASN]*Iface // member ASN → its LAN interface
	nextIP  uint32
}

// Internet is the generated world plus its exported datasets.
type Internet struct {
	Cfg  Config
	ASes map[asn.ASN]*AS
	// ASList is sorted by ASN for deterministic iteration.
	ASList  []*AS
	Rels    *asrel.Graph // ground truth relationships
	Routers []*Router
	IXPs    []*IXP

	// IfaceByAddr maps every assigned address to its interface
	// (ground truth ownership).
	IfaceByAddr map[netip.Addr]*Iface

	// Routes is the simulated multi-collector RIB.
	Routes []bgp.Route
	// Delegations is the simulated RIR extended-delegation index.
	Delegations *rir.Delegations
	// IXPPrefixes is the simulated IXP prefix directory.
	IXPPrefixes *ixp.Set

	// announcer maps announced prefixes to the originating AS plus the
	// ground-truth owner (differs for silently reallocated space).
	prefixOwner map[netip.Prefix]*AS

	rng    *rand.Rand
	nextID int
	// extraSpaceIdx cursors the global pool of extra /16 aggregates
	// (12.0.0.0 … 19.255.0.0) handed to ASes whose infrastructure
	// window overflows.
	extraSpaceIdx int

	edges         map[[2]asn.ASN]*Edge
	routing       *routingState
	announcements []announcement
}

// Edges returns the ground-truth interdomain adjacencies in a
// deterministic order.
func (in *Internet) Edges() []*Edge {
	keys := make([][2]asn.ASN, 0, len(in.edges))
	for k := range in.edges {
		keys = append(keys, k)
	}
	sortPairKeys(keys)
	out := make([]*Edge, 0, len(keys))
	for _, k := range keys {
		out = append(out, in.edges[k])
	}
	return out
}

// EffectiveASN is the AS number ground truth attributes the network's
// routers to. Silent reallocated customers have no BGP identity of
// their own — no measurable dataset could ever name them — so their
// routers are attributed to the reallocating provider, as an operator
// validating the data would.
func (a *AS) EffectiveASN() asn.ASN {
	if a.ReallocSilent && a.ReallocFrom != nil {
		return a.ReallocFrom.ASN
	}
	return a.ASN
}

// OwnerOf returns the ground-truth owner AS of a router interface
// address, or nil for unknown addresses.
func (in *Internet) OwnerOf(addr netip.Addr) *AS {
	if i, ok := in.IfaceByAddr[addr]; ok {
		return i.Router.Owner
	}
	return nil
}

// RouterOf returns the ground-truth router owning addr, or nil.
func (in *Internet) RouterOf(addr netip.Addr) *Router {
	if i, ok := in.IfaceByAddr[addr]; ok {
		return i.Router
	}
	return nil
}

// AddrOwnerAS returns the ground-truth AS a destination address belongs
// to (host or infrastructure space), or nil. Overlapping ownership —
// a reallocated block inside the provider's aggregate — resolves to
// the longest matching prefix (the customer).
func (in *Internet) AddrOwnerAS(addr netip.Addr) *AS {
	if a := in.OwnerOf(addr); a != nil {
		return a
	}
	var best *AS
	bestBits := -1
	for p, a := range in.prefixOwner {
		if p.Contains(addr) && p.Bits() > bestBits {
			best, bestBits = a, p.Bits()
		}
	}
	return best
}

func (in *Internet) newRouter(owner *AS) *Router {
	r := &Router{ID: in.nextID, Owner: owner, local: owner.nrouters}
	in.nextID++
	owner.nrouters++
	in.Routers = append(in.Routers, r)
	in.configureRouterBehaviour(r)
	return r
}

func (in *Internet) configureRouterBehaviour(r *Router) {
	rng := in.rng
	r.IPIDShared = rng.Float64() < in.Cfg.PIPIDShared
	r.IPIDBase = uint16(rng.Intn(1 << 16))
	r.IPIDVelocity = 0.3 + rng.Float64()*6
}

// addIface attaches a new interface with the given address to r. A
// duplicate address is a generator bug (overlapping allocation pools);
// it is reported as an error so callers of Generate get a diagnostic
// instead of a panic.
func (in *Internet) addIface(r *Router, addr netip.Addr) (*Iface, error) {
	if prev, dup := in.IfaceByAddr[addr]; dup {
		return nil, fmt.Errorf("topo: duplicate interface address %v (routers %d and %d)",
			addr, prev.Router.ID, r.ID)
	}
	i := &Iface{Addr: addr, Router: r}
	r.Ifaces = append(r.Ifaces, i)
	in.IfaceByAddr[addr] = i
	return i, nil
}
