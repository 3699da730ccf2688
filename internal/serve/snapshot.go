// Package serve is the annotation-serving layer: it loads a completed
// bdrmapIT inference — per-interface router/operator annotations, the
// inferred interdomain links, and the run's prefix→origin table — into
// an immutable, validated Snapshot and serves IP → router → operator-AS,
// IP → origin-AS and is-this-link-interdomain? queries over HTTP at
// high QPS.
//
// The package is deliberately inference-free: like cmd/explain, it
// reads a serialized artifact and never imports the engine or any
// loader, so an answer can only come from the recorded run. Robustness
// is the design center rather than an afterthought:
//
//   - snapshots are validated before publication (envelope CRC,
//     content fingerprint, structural invariants, self-check probes) —
//     a corrupt artifact is refused with a typed error while the
//     previously published snapshot keeps serving;
//   - published snapshots sit behind an atomic pointer, so a hot swap
//     is one pointer store and every request is answered entirely from
//     one generation;
//   - a failed post-swap self-check rolls the pointer back;
//   - an admission controller sheds load (503 + Retry-After) at a
//     bounded in-flight budget, and answers every request it admits in
//     full;
//   - every handler runs under a per-request deadline and panic
//     recovery, so one bad request costs one 500, not the process.
package serve

import (
	"fmt"
	"net/netip"
	"sort"

	"repro/internal/iptrie"
)

// PrefixKind labels which ip2as source a snapshot prefix record came
// from, mirroring internal/ip2as's layering (IXP first, then BGP, then
// RIR) without importing the loaders that build those sources.
type PrefixKind uint8

const (
	// PrefixBGP is a BGP-announced prefix with its origin AS.
	PrefixBGP PrefixKind = iota + 1
	// PrefixRIR is an RIR-delegated prefix (fallback space).
	PrefixRIR
	// PrefixIXP is an IXP peering LAN; it has no origin AS.
	PrefixIXP
)

// String returns the ip2as source name for k.
func (k PrefixKind) String() string {
	switch k {
	case PrefixBGP:
		return "bgp"
	case PrefixRIR:
		return "rir"
	case PrefixIXP:
		return "ixp"
	default:
		return "unknown"
	}
}

// Iface is one observed interface's committed annotation: the dense
// index of the router that owns it and the AS inferred on the far side
// of its link (the interface annotation). Router is an index into
// Snapshot.Routers.
type Iface struct {
	Addr   netip.Addr
	Router uint32
	ConnAS uint32
}

// Link is one inferred interdomain link keyed by its far-side
// interface: the near router is operated by NearAS, the far router by
// FarAS, with the traceroute-derived confidence label ("N", "E", "M").
type Link struct {
	FarAddr       netip.Addr
	NearAS, FarAS uint32
	Label         string
}

// Prefix is one prefix→origin record of the run's ip2as view, the
// answer of the /v1/ip2as query class. Origin is 0 for IXP prefixes.
type Prefix struct {
	Prefix netip.Prefix
	Origin uint32
	Kind   PrefixKind
}

// Snapshot is one completed inference in queryable form. A Snapshot is
// immutable after Index: the server publishes it behind an atomic
// pointer and any number of request goroutines read it without locks.
type Snapshot struct {
	// Source describes where the snapshot came from (free-form,
	// operator-facing; e.g. "bdrmapit: 1234 interfaces, 567 routers").
	Source string
	// AnnDigest is the FNV-64a digest of the offline annotations
	// rendering ("addr routerAS connAS\n" per interface, graph order),
	// the byte-equality contract between the daemon and the file a run
	// wrote on disk.
	AnnDigest uint64
	// Routers holds each router's operator AS, indexed by the dense
	// router index Iface.Router refers to.
	Routers []uint32
	// Ifaces holds every observed interface, sorted strictly ascending
	// by address.
	Ifaces []Iface
	// Links holds the inferred interdomain links, sorted by (FarAddr,
	// NearAS, FarAS).
	Links []Link
	// Prefixes holds the ip2as view, sorted by (Addr, Bits, Kind).
	Prefixes []Prefix

	// trie indexes Prefixes for longest-prefix lookup; built by Index.
	trie *iptrie.Trie[Prefix]
	// fingerprint is the content fingerprint stamped at encode time and
	// re-derived on Open; see Fingerprint.
	fingerprint uint64
}

// ValidationError reports a snapshot whose envelope was intact but
// whose content violates a structural invariant — an out-of-range
// router index, an unsorted table, a malformed address. It is the
// refusal a hot swap surfaces while the old snapshot keeps serving.
type ValidationError struct {
	Reason string
}

func (e *ValidationError) Error() string {
	return "serve: invalid snapshot: " + e.Reason
}

// Validate checks every structural invariant the serving path relies
// on: interface addresses strictly ascending (binary search), router
// indices in range, links and prefixes sorted and well-formed. It
// returns a *ValidationError on the first violation. Validate does not
// touch the fingerprint; the codec checks that during Open.
func (s *Snapshot) Validate() error {
	fail := func(format string, args ...any) error {
		return &ValidationError{Reason: fmt.Sprintf(format, args...)}
	}
	for i := range s.Ifaces {
		f := &s.Ifaces[i]
		if !f.Addr.IsValid() {
			return fail("interface %d has an invalid address", i)
		}
		if int(f.Router) >= len(s.Routers) {
			return fail("interface %s references router %d of %d", f.Addr, f.Router, len(s.Routers))
		}
		if i > 0 && s.Ifaces[i-1].Addr.Compare(f.Addr) >= 0 {
			return fail("interface table not strictly sorted at %d (%s after %s)", i, f.Addr, s.Ifaces[i-1].Addr)
		}
	}
	for i := range s.Links {
		l := &s.Links[i]
		if !l.FarAddr.IsValid() {
			return fail("link %d has an invalid far address", i)
		}
		switch l.Label {
		case "N", "E", "M":
		default:
			return fail("link %d has unknown confidence label %q", i, l.Label)
		}
		if i > 0 && compareLinks(&s.Links[i-1], l) > 0 {
			return fail("link table not sorted at %d", i)
		}
	}
	for i := range s.Prefixes {
		p := &s.Prefixes[i]
		if !p.Prefix.IsValid() {
			return fail("prefix %d is invalid", i)
		}
		if p.Kind < PrefixBGP || p.Kind > PrefixIXP {
			return fail("prefix %d has unknown kind %d", i, p.Kind)
		}
	}
	return nil
}

// compareLinks orders links by (FarAddr, NearAS, FarAS).
func compareLinks(a, b *Link) int {
	if c := a.FarAddr.Compare(b.FarAddr); c != 0 {
		return c
	}
	switch {
	case a.NearAS != b.NearAS:
		if a.NearAS < b.NearAS {
			return -1
		}
		return 1
	case a.FarAS != b.FarAS:
		if a.FarAS < b.FarAS {
			return -1
		}
		return 1
	}
	return 0
}

// Index builds the snapshot's query structures (the prefix trie). It
// must be called once, before the snapshot is published; Open does so
// automatically. Later layers win ip2as conflicts in reverse priority
// order, so the trie answers like internal/ip2as layers its sources:
// for an identical prefix, IXP beats BGP beats RIR.
func (s *Snapshot) Index() {
	t := iptrie.New[Prefix]()
	// Insert in ascending priority so the highest-priority record for
	// an identical prefix is the one that sticks.
	for _, kind := range []PrefixKind{PrefixRIR, PrefixBGP, PrefixIXP} {
		for _, p := range s.Prefixes {
			if p.Kind == kind {
				t.Insert(p.Prefix, p)
			}
		}
	}
	s.trie = t
}

// Fingerprint returns the snapshot's content fingerprint: the FNV-64a
// hash of its canonical payload encoding, stamped into the artifact at
// write time and re-derived on Open. 0 for a snapshot that has not
// been encoded or opened.
func (s *Snapshot) Fingerprint() uint64 { return s.fingerprint }

// LookupResult is one full-service answer: the annotation state of an
// observed interface.
type LookupResult struct {
	// Router is the dense index of the owning router (an opaque,
	// snapshot-scoped identifier).
	Router uint32
	// RouterAS is the AS inferred to operate the owning router.
	RouterAS uint32
	// ConnAS is the AS inferred on the far side of the interface's
	// link (0 when none was inferred).
	ConnAS uint32
}

// Lookup answers IP → router → operator-AS for an observed interface
// address. ok is false when addr was not observed in the run.
func (s *Snapshot) Lookup(addr netip.Addr) (LookupResult, bool) {
	i := sort.Search(len(s.Ifaces), func(i int) bool {
		return s.Ifaces[i].Addr.Compare(addr) >= 0
	})
	if i >= len(s.Ifaces) || s.Ifaces[i].Addr != addr {
		return LookupResult{}, false
	}
	f := &s.Ifaces[i]
	return LookupResult{
		Router:   f.Router,
		RouterAS: s.Routers[f.Router],
		ConnAS:   f.ConnAS,
	}, true
}

// LookupLink reports whether addr is the far side of an inferred
// interdomain link, and if so the highest-confidence link record for
// it (links are sorted, and "E" < "M" < "N" alphabetically does not
// match confidence order, so the best label is selected explicitly:
// N > E > M).
func (s *Snapshot) LookupLink(addr netip.Addr) (Link, bool) {
	i := sort.Search(len(s.Links), func(i int) bool {
		return s.Links[i].FarAddr.Compare(addr) >= 0
	})
	best := -1
	for ; i < len(s.Links) && s.Links[i].FarAddr == addr; i++ {
		if best < 0 || labelRank(s.Links[i].Label) > labelRank(s.Links[best].Label) {
			best = i
		}
	}
	if best < 0 {
		return Link{}, false
	}
	return s.Links[best], true
}

// labelRank orders confidence labels: nexthop > echo > multihop.
func labelRank(label string) int {
	switch label {
	case "N":
		return 3
	case "E":
		return 2
	case "M":
		return 1
	default:
		return 0
	}
}

// LookupPrefix answers the ip2as query class: the longest matching
// prefix record for addr from the run's ip2as view.
// ok is false when no prefix covers addr. Requires Index.
func (s *Snapshot) LookupPrefix(addr netip.Addr) (Prefix, bool) {
	if s.trie == nil {
		return Prefix{}, false
	}
	p, _, ok := s.trie.Lookup(addr)
	return p, ok
}

// SelfCheck probes the snapshot through the same lookup paths requests
// take: a sample of interface records must round-trip exactly, the
// first link and prefix records must be findable, and an address
// outside the table must miss. A snapshot that fails SelfCheck is
// refused at publish time (or rolled back after a swap) — the
// executable form of "validate before publish".
func (s *Snapshot) SelfCheck() error {
	fail := func(format string, args ...any) error {
		return &ValidationError{Reason: "self-check: " + fmt.Sprintf(format, args...)}
	}
	if len(s.Routers) == 0 || len(s.Ifaces) == 0 {
		return fail("empty snapshot (%d routers, %d interfaces)", len(s.Routers), len(s.Ifaces))
	}
	for _, i := range []int{0, len(s.Ifaces) / 2, len(s.Ifaces) - 1} {
		f := &s.Ifaces[i]
		got, ok := s.Lookup(f.Addr)
		if !ok {
			return fail("interface %s not found through its own table", f.Addr)
		}
		if got.Router != f.Router || got.RouterAS != s.Routers[f.Router] || got.ConnAS != f.ConnAS {
			return fail("interface %s answered %+v, table holds router=%d conn=%d", f.Addr, got, f.Router, f.ConnAS)
		}
	}
	if len(s.Links) > 0 {
		l := s.Links[0]
		if _, ok := s.LookupLink(l.FarAddr); !ok {
			return fail("link far side %s not found through the link index", l.FarAddr)
		}
	}
	if len(s.Prefixes) > 0 {
		if s.trie == nil {
			return fail("prefix table present but not indexed")
		}
		p := s.Prefixes[0]
		if _, ok := s.LookupPrefix(p.Prefix.Addr()); !ok {
			return fail("prefix %s not found through the trie", p.Prefix)
		}
	}
	// A guaranteed miss: the unspecified address is never an observed
	// interface (loaders reject it), so a hit here means the search is
	// broken.
	if _, ok := s.Lookup(netip.IPv4Unspecified()); ok {
		return fail("lookup of 0.0.0.0 unexpectedly succeeded")
	}
	return nil
}
