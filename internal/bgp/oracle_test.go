package bgp

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strings"

	"repro/internal/asn"
)

// oracleParsePath is ParsePath as it was before it walked the fields in
// place: strings.Fields, strings.Split and a fresh slice per path.
func oracleParsePath(s string) ([]PathElem, error) {
	fields := strings.Fields(s)
	out := make([]PathElem, 0, len(fields))
	for _, f := range fields {
		if strings.HasPrefix(f, "{") {
			inner := strings.Trim(f, "{}")
			if inner == "" {
				return nil, fmt.Errorf("bgp: empty AS_SET in path %q", s)
			}
			var set []asn.ASN
			for _, m := range strings.Split(inner, ",") {
				a, err := asn.Parse(strings.TrimSpace(m))
				if err != nil {
					return nil, fmt.Errorf("bgp: AS_SET member: %w", err)
				}
				set = append(set, a)
			}
			sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
			out = append(out, PathElem{Set: set})
			continue
		}
		a, err := asn.Parse(f)
		if err != nil {
			return nil, fmt.Errorf("bgp: path element: %w", err)
		}
		out = append(out, PathElem{AS: a})
	}
	return out, nil
}

// oracleReadRoutesStats is ReadRoutesStats as it was before its paths
// were cut from shared chunks. The differential tests hold the reader to
// it.
func oracleReadRoutesStats(r io.Reader) ([]Route, ReadStats, error) {
	var stats ReadStats
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Route
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			stats.SkippedLines++
			continue
		}
		pfxStr, pathStr, ok := strings.Cut(line, "|")
		if !ok {
			return nil, stats, fmt.Errorf("bgp: line %d: missing '|' separator", lineno)
		}
		p, err := netip.ParsePrefix(strings.TrimSpace(pfxStr))
		if err != nil {
			return nil, stats, fmt.Errorf("bgp: line %d: %w", lineno, err)
		}
		path, err := oracleParsePath(pathStr)
		if err != nil {
			return nil, stats, fmt.Errorf("bgp: line %d: %w", lineno, err)
		}
		if len(path) == 0 {
			return nil, stats, fmt.Errorf("bgp: line %d: empty AS path", lineno)
		}
		out = append(out, Route{Prefix: p.Masked(), Path: path})
		stats.Routes++
	}
	if err := sc.Err(); err != nil {
		return nil, stats, fmt.Errorf("bgp: read: %w", err)
	}
	return out, stats, nil
}

// oracleTable is Table as it was before its origin tallies became
// ascending slices: a map from origin to announcements per prefix.
type oracleTable map[netip.Prefix]map[asn.ASN]int

func (o oracleTable) add(r Route) {
	origins := r.Origins()
	if len(origins) == 0 {
		return
	}
	p := r.Prefix.Masked()
	if o[p] == nil {
		o[p] = make(map[asn.ASN]int, 1)
	}
	for _, a := range origins {
		o[p][a]++
	}
}

// longest is the longest prefix of o holding addr.
func (o oracleTable) longest(addr netip.Addr) (netip.Prefix, bool) {
	for bits := addr.BitLen(); bits >= 0; bits-- {
		if p, _ := addr.Prefix(bits); o[p] != nil {
			return p, true
		}
	}
	return netip.Prefix{}, false
}

func dominant(counts map[asn.ASN]int) asn.ASN {
	best, bestN := asn.None, -1
	for a, n := range counts {
		if n > bestN || (n == bestN && a < best) {
			best, bestN = a, n
		}
	}
	return best
}

func (o oracleTable) origin(addr netip.Addr) (asn.ASN, netip.Prefix, bool) {
	p, ok := o.longest(addr)
	if !ok {
		return asn.None, netip.Prefix{}, false
	}
	return dominant(o[p]), p, true
}

func (o oracleTable) origins(addr netip.Addr) ([]asn.ASN, netip.Prefix, bool) {
	p, ok := o.longest(addr)
	if !ok {
		return nil, netip.Prefix{}, false
	}
	out := make([]asn.ASN, 0, len(o[p]))
	for a := range o[p] {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, p, true
}
