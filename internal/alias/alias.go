// Package alias represents IP alias-resolution results — groupings of
// interface addresses onto inferred routers — and implements three
// inference techniques against a probing substrate: a MIDAR-style
// monotonic-IPID test, an iffinder-style common-reply-source test, and a
// kapar/APAR-style analytical technique that trades precision for
// coverage (paper §7.4 compares the precise and imprecise variants).
// It also reads and writes the ITDK "nodes" file format that CAIDA
// distributes alias sets in.
package alias

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strings"

	"repro/internal/arena"
	"repro/internal/netutil"
)

// Sets is a partition of interface addresses into alias groups
// ("nodes"). Addresses not present in any group are implicitly
// singletons. The zero value is not usable; construct with NewSets.
type Sets struct {
	group   map[netip.Addr]int
	members [][]netip.Addr
	slab    arena.Slab[netip.Addr] // the chunks new groups are cut from
}

// NewSets returns an empty alias partition.
func NewSets() *Sets {
	return &Sets{group: make(map[netip.Addr]int)}
}

// Add merges the given addresses into one alias group. If any address is
// already grouped, the groups are unioned (alias resolution is
// transitive).
func (s *Sets) Add(addrs ...netip.Addr) {
	if len(addrs) == 0 {
		return
	}
	target := -1
	for _, a := range addrs {
		if g, ok := s.group[a]; ok {
			if target == -1 || g == target {
				target = g
				continue
			}
			// Union two existing groups: move the smaller into the larger.
			from, to := g, target
			if len(s.members[from]) > len(s.members[to]) {
				from, to = to, from
			}
			for _, m := range s.members[from] {
				s.group[m] = to
			}
			s.members[to] = append(s.members[to], s.members[from]...)
			s.members[from] = nil
			target = to
		}
	}
	if target == -1 {
		target = len(s.members)
		s.members = append(s.members, s.slab.Take(len(addrs))[:0])
	}
	for _, a := range addrs {
		if _, ok := s.group[a]; !ok {
			s.group[a] = target
			s.members[target] = append(s.members[target], a)
		}
	}
}

// GroupOf returns an opaque group id for addr; ok is false for
// ungrouped (singleton) addresses.
func (s *Sets) GroupOf(addr netip.Addr) (int, bool) {
	g, ok := s.group[addr]
	return g, ok
}

// SameRouter reports whether a and b were resolved to the same router.
func (s *Sets) SameRouter(a, b netip.Addr) bool {
	ga, oka := s.group[a]
	gb, okb := s.group[b]
	return oka && okb && ga == gb
}

// Members returns the addresses aliased with addr (including addr), or
// just addr for singletons.
func (s *Sets) Members(addr netip.Addr) []netip.Addr {
	if g, ok := s.group[addr]; ok {
		return s.members[g]
	}
	return []netip.Addr{addr}
}

// NumGroups returns the number of non-empty groups.
func (s *Sets) NumGroups() int {
	n := 0
	for _, m := range s.members {
		if len(m) > 0 {
			n++
		}
	}
	return n
}

// NumAddrs returns the number of grouped addresses.
func (s *Sets) NumAddrs() int { return len(s.group) }

// Groups visits each non-empty group in a deterministic order. The
// slice passed to f must not be retained.
func (s *Sets) Groups(f func(addrs []netip.Addr) bool) {
	idx := make([]int, 0, len(s.members))
	for i, m := range s.members {
		if len(m) > 0 {
			idx = append(idx, i)
		}
	}
	// Sort groups by their smallest member for determinism.
	for _, i := range idx {
		sortAddrs(s.members[i])
	}
	sort.Slice(idx, func(a, b int) bool {
		return s.members[idx[a]][0].Less(s.members[idx[b]][0])
	})
	for _, i := range idx {
		if !f(s.members[i]) {
			return
		}
	}
}

func sortAddrs(a []netip.Addr) {
	sort.Slice(a, func(i, j int) bool { return a[i].Less(a[j]) })
}

// ReadNodes parses the ITDK nodes format:
//
//	node N1:  1.2.3.4 5.6.7.8
//
// Comment lines start with '#'. It streams: what it holds besides the
// partition is one line and that line's addresses.
func ReadNodes(r io.Reader) (*Sets, error) {
	s := NewSets()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	lineno := 0
	var addrs []netip.Addr // the current line's, reused
	for sc.Scan() {
		lineno++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		rest, ok := bytes.CutPrefix(line, []byte("node "))
		if !ok {
			return nil, fmt.Errorf("alias: line %d: expected 'node' record", lineno)
		}
		_, addrPart, ok := bytes.Cut(rest, []byte(":"))
		if !ok {
			return nil, fmt.Errorf("alias: line %d: missing ':' after node id", lineno)
		}
		addrs = addrs[:0]
		for f, more := netutil.CutField(addrPart); len(f) > 0; f, more = netutil.CutField(more) {
			a, err := netutil.ParseAddr(f)
			if err != nil {
				return nil, fmt.Errorf("alias: line %d: %w", lineno, err)
			}
			addrs = append(addrs, a)
		}
		if len(addrs) > 0 {
			s.Add(addrs...)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("alias: read: %w", err)
	}
	return s, nil
}

// WriteNodes serializes in ITDK nodes format with sequential node ids.
func (s *Sets) WriteNodes(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# format: node <id>:  <addr> <addr> ...")
	id := 0
	var err error
	s.Groups(func(addrs []netip.Addr) bool {
		id++
		var sb strings.Builder
		fmt.Fprintf(&sb, "node N%d: ", id)
		for _, a := range addrs {
			sb.WriteByte(' ')
			sb.WriteString(a.String())
		}
		_, err = fmt.Fprintln(bw, sb.String())
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}
