// Package ip2as layers the three IP→AS data sources exactly as bdrmapIT
// consumes them (paper §4.1): IXP peering-LAN prefixes are special-cased
// first (their BGP origins must not pollute origin-AS sets), then BGP
// longest-prefix match, then RIR extended delegations as a fallback for
// space invisible in BGP.
package ip2as

import (
	"net/netip"

	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/ixp"
	"repro/internal/netutil"
	"repro/internal/rir"
	"repro/internal/shard"
)

// Kind identifies which data source resolved an address.
type Kind int8

const (
	// Unannounced means no source covers the address (paper §6.1.1:
	// ~0.1% of interface addresses).
	Unannounced Kind = iota
	// IXP means the address is inside an IXP peering LAN.
	IXP
	// BGP means a BGP-announced prefix covered the address.
	BGP
	// RIR means only an RIR delegation covered the address.
	RIR
	// Special means private/reserved space that never maps to an AS.
	Special
)

// String returns a human-readable source name.
func (k Kind) String() string {
	switch k {
	case IXP:
		return "ixp"
	case BGP:
		return "bgp"
	case RIR:
		return "rir"
	case Special:
		return "special"
	default:
		return "unannounced"
	}
}

// Resolver answers origin-AS queries over the layered sources. Any field
// may be nil, in which case that layer is skipped. Lookups are pure
// reads over the underlying tries, so a Resolver is safe for any number
// of concurrent readers once its sources stop being mutated.
type Resolver struct {
	IXPs        *ixp.Set
	Table       *bgp.Table
	Delegations *rir.Delegations
}

// Result is a resolved origin. Origin is asn.None for IXP, Special, and
// Unannounced kinds.
type Result struct {
	Origin asn.ASN
	Prefix netip.Prefix
	Kind   Kind
}

// Lookup resolves addr to its origin AS.
func (r *Resolver) Lookup(addr netip.Addr) Result {
	if netutil.IsSpecial(addr) {
		return Result{Kind: Special}
	}
	if r.IXPs != nil && r.IXPs.Contains(addr) {
		return Result{Kind: IXP}
	}
	if r.Table != nil {
		if origin, p, ok := r.Table.Origin(addr); ok {
			return Result{Origin: origin, Prefix: p, Kind: BGP}
		}
	}
	if r.Delegations != nil {
		if origin, p, ok := r.Delegations.Origin(addr); ok {
			return Result{Origin: origin, Prefix: p, Kind: RIR}
		}
	}
	return Result{Kind: Unannounced}
}

// Origin is a convenience wrapper returning just the origin AS
// (asn.None when unresolvable or IXP).
func (r *Resolver) Origin(addr netip.Addr) asn.ASN {
	return r.Lookup(addr).Origin
}

// ResolveBatch resolves every address concurrently across the given
// number of workers (<= 0 for GOMAXPROCS) and returns results aligned
// with addrs. The longest-prefix lookups are read-only over the tries,
// so shards need no locks; each worker writes only its own slice range,
// making the output identical for every worker count.
func (r *Resolver) ResolveBatch(addrs []netip.Addr, workers int) []Result {
	out := make([]Result, len(addrs))
	shard.For(len(addrs), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = r.Lookup(addrs[i])
		}
	})
	return out
}

// Coverage tallies how a set of addresses resolves across the sources;
// the paper reports 99.95% of observed addresses matching BGP ∪ RIR ∪
// IXP.
type Coverage struct {
	Total, ByBGP, ByRIR, ByIXP, UnannouncedN, SpecialN int
}

// Fraction returns the covered fraction (BGP+RIR+IXP over non-special
// total).
func (c Coverage) Fraction() float64 {
	denom := c.Total - c.SpecialN
	if denom == 0 {
		return 0
	}
	return float64(c.ByBGP+c.ByRIR+c.ByIXP) / float64(denom)
}

// Measure resolves every address and tallies coverage.
func (r *Resolver) Measure(addrs []netip.Addr) Coverage {
	results := make([]Result, len(addrs))
	for i, a := range addrs {
		results[i] = r.Lookup(a)
	}
	return MeasureResults(results)
}

// MeasureResults tallies coverage over already-resolved results, so
// callers that batch-resolved (e.g. the graph builder) can
// report coverage without paying for a second trie walk per address.
func MeasureResults(results []Result) Coverage {
	var c Coverage
	for _, res := range results {
		c.Total++
		switch res.Kind {
		case BGP:
			c.ByBGP++
		case RIR:
			c.ByRIR++
		case IXP:
			c.ByIXP++
		case Special:
			c.SpecialN++
		default:
			c.UnannouncedN++
		}
	}
	return c
}
