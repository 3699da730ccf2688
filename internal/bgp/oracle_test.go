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
