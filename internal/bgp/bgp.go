// Package bgp models the global routing table view that bdrmapIT derives
// its interface origin ASes from (paper §4.1). It parses RIB dumps in a
// pipe-separated text form ("prefix|as path"), extracts origin ASes
// (handling path prepending, AS_SETs, and MOAS prefixes), and answers
// longest-prefix-match origin queries via a radix trie.
package bgp

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"strings"

	"repro/internal/arena"
	"repro/internal/asn"
	"repro/internal/iptrie"
	"repro/internal/netutil"
)

// Route is one RIB entry: a prefix and the AS path it was announced with.
// Path[0] is the collector-adjacent AS; the origin is the final element.
// A path element may be an AS_SET, in which case SetMembers holds the
// members and the element's ASN is asn.None.
type Route struct {
	Prefix netip.Prefix
	Path   []PathElem
}

// PathElem is one AS-path element: either a plain ASN or an AS_SET.
type PathElem struct {
	AS  asn.ASN
	Set []asn.ASN // non-nil for AS_SET elements
}

// IsSet reports whether the element is an AS_SET.
func (e PathElem) IsSet() bool { return e.Set != nil }

// Origins returns the origin AS(es) of the route: the members of the last
// path element. A trailing AS_SET yields all members.
func (r Route) Origins() []asn.ASN {
	if len(r.Path) == 0 {
		return nil
	}
	last := r.Path[len(r.Path)-1]
	if last.IsSet() {
		return last.Set
	}
	return []asn.ASN{last.AS}
}

// ASPath returns the path with AS_SETs flattened and consecutive
// duplicates (prepending) removed. AS-relationship inference consumes
// these cleaned paths.
func (r Route) ASPath() []asn.ASN {
	out := make([]asn.ASN, 0, len(r.Path))
	for _, e := range r.Path {
		if e.IsSet() {
			// AS_SETs end relationship inference; represent by first member.
			if len(e.Set) > 0 {
				if len(out) == 0 || out[len(out)-1] != e.Set[0] {
					out = append(out, e.Set[0])
				}
			}
			continue
		}
		if len(out) > 0 && out[len(out)-1] == e.AS {
			continue
		}
		out = append(out, e.AS)
	}
	return out
}

// ParsePath parses a space-separated AS path such as
// "3356 174 {64512,64513}".
func ParsePath(s string) ([]PathElem, error) {
	return appendPath(nil, []byte(s))
}

// appendPath appends the elements of the AS path s to out, walking its
// fields in place.
func appendPath(out []PathElem, s []byte) ([]PathElem, error) {
	for f, rest := netutil.CutField(s); len(f) > 0; f, rest = netutil.CutField(rest) {
		if f[0] == '{' {
			inner := bytes.Trim(f, "{}")
			if len(inner) == 0 {
				return nil, fmt.Errorf("bgp: empty AS_SET in path %q", s)
			}
			set := make([]asn.ASN, 0, bytes.Count(inner, []byte{','})+1)
			for m, more := inner, true; more; {
				var member []byte
				member, m, more = bytes.Cut(m, []byte{','})
				a, err := asn.ParseBytes(member)
				if err != nil {
					return nil, fmt.Errorf("bgp: AS_SET member: %w", err)
				}
				set = append(set, a)
			}
			slices.Sort(set)
			out = append(out, PathElem{Set: set})
			continue
		}
		a, err := asn.ParseBytes(f)
		if err != nil {
			return nil, fmt.Errorf("bgp: path element: %w", err)
		}
		out = append(out, PathElem{AS: a})
	}
	return out, nil
}

// ReadStats tallies what a RIB scan consumed versus skipped.
type ReadStats struct {
	// Routes is the number of routes parsed.
	Routes int
	// SkippedLines counts blank and comment lines.
	SkippedLines int
}

// ReadRoutes reads a RIB dump: one route per line, "prefix|as path".
// Blank lines and lines starting with '#' are skipped.
func ReadRoutes(r io.Reader) ([]Route, error) {
	routes, _, err := ReadRoutesStats(r)
	return routes, err
}

// ReadRoutesStats is ReadRoutes returning skip tallies alongside the
// parsed routes. It streams, one line at a time, parses each line in the
// scanner's buffer, and cuts the paths from shared chunks (arena.Slab).
func ReadRoutesStats(r io.Reader) ([]Route, ReadStats, error) {
	var stats ReadStats
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var (
		out   []Route
		path  []PathElem // the line's, copied out once whole
		paths arena.Slab[PathElem]
	)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			stats.SkippedLines++
			continue
		}
		bar := bytes.IndexByte(line, '|')
		if bar < 0 {
			return nil, stats, fmt.Errorf("bgp: line %d: missing '|' separator", lineno)
		}
		p, err := netutil.ParsePrefix(bytes.TrimSpace(line[:bar]))
		if err != nil {
			return nil, stats, fmt.Errorf("bgp: line %d: %w", lineno, err)
		}
		if path, err = appendPath(path[:0], line[bar+1:]); err != nil {
			return nil, stats, fmt.Errorf("bgp: line %d: %w", lineno, err)
		}
		if len(path) == 0 {
			return nil, stats, fmt.Errorf("bgp: line %d: empty AS path", lineno)
		}
		rp := paths.Take(len(path))
		copy(rp, path)
		if len(out) == cap(out) {
			// Double: append's own growth, 1.25× on large slices, would
			// allocate five times the final table on the way there.
			out = slices.Grow(out, max(len(out), 64))
		}
		out = append(out, Route{Prefix: p.Masked(), Path: rp})
		stats.Routes++
	}
	if err := sc.Err(); err != nil {
		return nil, stats, fmt.Errorf("bgp: read: %w", err)
	}
	return out, stats, nil
}

// WriteRoutes writes routes in the format ReadRoutes accepts.
func WriteRoutes(w io.Writer, routes []Route) error {
	bw := bufio.NewWriter(w)
	for _, rt := range routes {
		var sb strings.Builder
		sb.WriteString(rt.Prefix.String())
		sb.WriteByte('|')
		for i, e := range rt.Path {
			if i > 0 {
				sb.WriteByte(' ')
			}
			if e.IsSet() {
				sb.WriteByte('{')
				for j, m := range e.Set {
					if j > 0 {
						sb.WriteByte(',')
					}
					fmt.Fprintf(&sb, "%d", uint32(m))
				}
				sb.WriteByte('}')
			} else {
				fmt.Fprintf(&sb, "%d", uint32(e.AS))
			}
		}
		sb.WriteByte('\n')
		if _, err := bw.WriteString(sb.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// originEntry holds a prefix's origins, each with how many announcements
// named it, ascending by AS and free of duplicates (the tally idiom of
// core's vote). Nearly every prefix has one origin; a MOAS prefix
// (announced by several) keeps them all so the table answers
// deterministically with the dominant one.
type originEntry []originCount

type originCount struct {
	as asn.ASN
	n  int
}

// add counts one announcement by a.
func (e originEntry) add(a asn.ASN) originEntry {
	i, ok := slices.BinarySearchFunc(e, a, func(c originCount, a asn.ASN) int { return cmp.Compare(c.as, a) })
	if ok {
		e[i].n++
		return e
	}
	return slices.Insert(e, i, originCount{as: a, n: 1})
}

// dominant returns the origin with the most announcements, the smallest
// ASN among those tied.
func (e originEntry) dominant() asn.ASN {
	best := e[0]
	for _, c := range e[1:] {
		if c.n > best.n {
			best = c
		}
	}
	return best.as
}

// Table answers longest-prefix-match origin-AS queries (paper §4.1:
// "we use the longest matching prefix from the route announcements").
type Table struct {
	trie      *iptrie.Trie[originEntry]
	numRoutes int
}

// NewTable builds an origin table from RIB routes.
func NewTable(routes []Route) *Table {
	t := &Table{trie: iptrie.New[originEntry]()}
	for _, r := range routes {
		t.Add(r)
	}
	return t
}

// Add incorporates one route into the table.
func (t *Table) Add(r Route) {
	origins := r.Origins()
	if len(origins) == 0 {
		return
	}
	t.numRoutes++
	t.trie.Update(r.Prefix, func(e originEntry, _ bool) originEntry {
		for _, o := range origins {
			e = e.add(o)
		}
		return e
	})
}

// NumRoutes returns the number of routes added.
func (t *Table) NumRoutes() int { return t.numRoutes }

// NumPrefixes returns the number of distinct prefixes in the table.
func (t *Table) NumPrefixes() int { return t.trie.Len() }

// Origin returns the origin AS for addr using longest-prefix match.
// For MOAS prefixes it returns the origin with the most announcements,
// breaking ties toward the smallest ASN. ok is false when no prefix
// covers addr.
func (t *Table) Origin(addr netip.Addr) (origin asn.ASN, match netip.Prefix, ok bool) {
	e, p, ok := t.trie.Lookup(addr)
	if !ok {
		return asn.None, netip.Prefix{}, false
	}
	return e.dominant(), p, true
}

// Origins returns every origin AS announced for the longest matching
// prefix, sorted ascending.
func (t *Table) Origins(addr netip.Addr) ([]asn.ASN, netip.Prefix, bool) {
	e, p, ok := t.trie.Lookup(addr)
	if !ok {
		return nil, netip.Prefix{}, false
	}
	out := make([]asn.ASN, len(e))
	for i, c := range e {
		out[i] = c.as
	}
	return out, p, true
}

// CoversPrefix reports whether any announced prefix contains all of p.
// The RIR fallback uses it to honour "we only use the prefixes from RIR
// delegations not already covered by a BGP prefix" (paper §4.1).
func (t *Table) CoversPrefix(p netip.Prefix) bool {
	return t.trie.CoveredByPrefix(p)
}

// Walk visits every (prefix, dominant origin) pair in the table.
func (t *Table) Walk(f func(p netip.Prefix, origin asn.ASN) bool) {
	t.trie.Walk(func(p netip.Prefix, e originEntry) bool { return f(p, e.dominant()) })
}
