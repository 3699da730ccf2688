// Package pfx2as reads and writes CAIDA's routeviews-prefix2as format:
// a tab-separated "prefix length origin" file derived from a RIB, the
// precomputed IP→AS mapping many measurement pipelines (including
// bdrmapIT deployments) consume instead of raw BGP dumps. Multi-origin
// prefixes encode their origins as "as1_as2" (MOAS) or "as1,as2"
// (AS_SET); both resolve to every listed AS.
package pfx2as

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strings"

	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/iptrie"
)

// Entry is one mapping line.
type Entry struct {
	Prefix  netip.Prefix
	Origins []asn.ASN
}

// Read parses a prefix2as file. Lines are "prefix<TAB>length<TAB>asn"
// (whitespace-separated also accepted); '#' comments are skipped.
func Read(r io.Reader) ([]Entry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Entry
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("pfx2as: line %d: want 'prefix length origin'", lineno)
		}
		addr, err := netip.ParseAddr(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pfx2as: line %d: %w", lineno, err)
		}
		var bits int
		if _, err := fmt.Sscanf(fields[1], "%d", &bits); err != nil {
			return nil, fmt.Errorf("pfx2as: line %d: length: %w", lineno, err)
		}
		p := netip.PrefixFrom(addr, bits)
		if !p.IsValid() {
			return nil, fmt.Errorf("pfx2as: line %d: invalid prefix %s/%d", lineno, addr, bits)
		}
		origins, err := parseOrigins(fields[2])
		if err != nil {
			return nil, fmt.Errorf("pfx2as: line %d: %w", lineno, err)
		}
		out = append(out, Entry{Prefix: p.Masked(), Origins: origins})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pfx2as: read: %w", err)
	}
	return out, nil
}

// parseOrigins handles "64496", MOAS "64496_64497", and AS_SET
// "64496,64497" notations (and their combination).
func parseOrigins(s string) ([]asn.ASN, error) {
	var out []asn.ASN
	for _, part := range strings.FieldsFunc(s, func(r rune) bool {
		return r == '_' || r == ','
	}) {
		a, err := asn.Parse(part)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("pfx2as: empty origin %q", s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Write renders entries in prefix2as form, MOAS origins joined with
// '_'.
func Write(w io.Writer, entries []Entry) error {
	bw := bufio.NewWriter(w)
	for _, e := range entries {
		parts := make([]string, len(e.Origins))
		for i, a := range e.Origins {
			parts[i] = fmt.Sprintf("%d", uint32(a))
		}
		if _, err := fmt.Fprintf(bw, "%s\t%d\t%s\n",
			e.Prefix.Addr(), e.Prefix.Bits(), strings.Join(parts, "_")); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FromRoutes derives prefix2as entries from RIB routes: per prefix, the
// set of observed origins (sorted), one entry per prefix in address
// order — how CAIDA's generator condenses a collector RIB.
func FromRoutes(routes []bgp.Route) []Entry {
	origins := make(map[netip.Prefix]asn.SmallSet)
	for _, r := range routes {
		s := origins[r.Prefix]
		for _, o := range r.Origins() {
			s.Add(o)
		}
		origins[r.Prefix] = s
	}
	out := make([]Entry, 0, len(origins))
	for p, s := range origins {
		out = append(out, Entry{Prefix: p, Origins: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prefix.Addr() != out[j].Prefix.Addr() {
			return out[i].Prefix.Addr().Less(out[j].Prefix.Addr())
		}
		return out[i].Prefix.Bits() < out[j].Prefix.Bits()
	})
	return out
}

// Table answers longest-prefix-match origin queries over entries — a
// drop-in lighter alternative to a full bgp.Table when only the
// prefix2as file is available.
type Table struct {
	trie *iptrie.Trie[[]asn.ASN]
}

// NewTable indexes entries for lookup.
func NewTable(entries []Entry) *Table {
	t := &Table{trie: iptrie.New[[]asn.ASN]()}
	for _, e := range entries {
		t.trie.Insert(e.Prefix, e.Origins)
	}
	return t
}

// Origin returns the first (lowest) origin of the longest matching
// prefix.
func (t *Table) Origin(addr netip.Addr) (asn.ASN, netip.Prefix, bool) {
	origins, p, ok := t.trie.Lookup(addr)
	if !ok || len(origins) == 0 {
		return asn.None, netip.Prefix{}, false
	}
	return origins[0], p, true
}

// Origins returns every origin of the longest matching prefix.
func (t *Table) Origins(addr netip.Addr) ([]asn.ASN, netip.Prefix, bool) {
	return t.trie.Lookup(addr)
}

// Len returns the number of indexed prefixes.
func (t *Table) Len() int { return t.trie.Len() }
