// Package asn defines the AS-number type and the AS-set types shared by
// every layer of the system. Autonomous System numbers are 32-bit
// (RFC 6793); 0 is reserved and used throughout this codebase as the
// "no AS / unannounced" sentinel.
//
// There are two set types. Set is a hash set: right where a set is large
// — customer cones and neighbour sets (asrel), the topology generator
// (topo) and the sets core's RelationshipOracle hands back, which is the
// only place internal/core meets one. SmallSet is a sorted slice: right
// where there is one set per entity and most hold one or two members —
// the origin and destination AS sets the IR graph hangs on every
// interface, link and router, and the refinement vote's working sets.
package asn

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// ASN is an autonomous system number. Zero means "unknown or unannounced".
type ASN uint32

// None is the sentinel for an absent AS.
const None ASN = 0

// String implements fmt.Stringer using the canonical asplain form.
func (a ASN) String() string {
	if a == None {
		return "AS?"
	}
	return "AS" + strconv.FormatUint(uint64(a), 10)
}

// Parse parses an AS number in asplain form, with or without an "AS"
// prefix ("65001" or "AS65001").
func Parse(s string) (ASN, error) {
	if len(s) > 2 && (s[0] == 'A' || s[0] == 'a') && (s[1] == 'S' || s[1] == 's') {
		s = s[2:]
	}
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return None, fmt.Errorf("asn: parse %q: %w", s, err)
	}
	return ASN(v), nil
}

// Set is a set of AS numbers. The zero value is not usable; construct
// with NewSet or make(Set).
type Set map[ASN]struct{}

// NewSet returns a Set containing the given members.
func NewSet(members ...ASN) Set {
	s := make(Set, len(members))
	for _, m := range members {
		s[m] = struct{}{}
	}
	return s
}

// Add inserts a into the set.
func (s Set) Add(a ASN) { s[a] = struct{}{} }

// Has reports membership.
func (s Set) Has(a ASN) bool {
	_, ok := s[a]
	return ok
}

// Len returns the number of members.
func (s Set) Len() int { return len(s) }

// AddAll inserts every member of other.
func (s Set) AddAll(other Set) {
	for a := range other {
		s[a] = struct{}{}
	}
}

// Sorted returns the members in ascending order. Deterministic iteration
// matters: every tie-break in the inference pipeline must be total.
func (s Set) Sorted() []ASN {
	out := make([]ASN, 0, len(s))
	for a := range s {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Equal reports whether both sets have identical membership.
func (s Set) Equal(other Set) bool {
	if len(s) != len(other) {
		return false
	}
	for a := range s {
		if !other.Has(a) {
			return false
		}
	}
	return true
}

// SmallSet is a set of AS numbers held as an ascending, duplicate-free
// slice: one allocation (none while empty), members in order by
// construction, and a range over it is a range over a slice — it yields
// (index, member). The zero value is the empty set. Methods that change
// membership take a pointer and work in place; a copy of the slice
// header aliases the set, so copy the members (AddAll into an empty set)
// to keep one.
type SmallSet []ASN

// Has reports membership.
func (s SmallSet) Has(a ASN) bool {
	_, ok := slices.BinarySearch(s, a)
	return ok
}

// Len returns the number of members.
func (s SmallSet) Len() int { return len(s) }

// Add inserts a and reports whether it was absent.
func (s *SmallSet) Add(a ASN) bool {
	at, ok := slices.BinarySearch(*s, a)
	if !ok {
		*s = slices.Insert(*s, at, a)
	}
	return !ok
}

// Remove deletes a, if present.
func (s *SmallSet) Remove(a ASN) {
	if at, ok := slices.BinarySearch(*s, a); ok {
		*s = slices.Delete(*s, at, at+1)
	}
}

// AddAll inserts every member of other. It sorts the two runs together
// rather than inserting one member at a time, so a union of sets costs
// their total size (times a logarithm), not that times the result's.
func (s *SmallSet) AddAll(other SmallSet) {
	*s = append(*s, other...)
	slices.Sort(*s)
	*s = slices.Compact(*s)
}

// Equal reports whether both sets have identical membership.
func (s SmallSet) Equal(other SmallSet) bool { return slices.Equal(s, other) }

// Counter tallies votes per AS; it backs the voting heuristics in the
// refinement loop (paper §6.1, §6.2).
type Counter map[ASN]int

// Inc adds n votes for a.
func (c Counter) Inc(a ASN, n int) { c[a] += n }

// Max returns the ASes with the highest vote count, sorted ascending,
// and the count itself. An empty counter returns (nil, 0).
func (c Counter) Max() ([]ASN, int) {
	best := 0
	for _, n := range c {
		if n > best {
			best = n
		}
	}
	if best == 0 {
		return nil, 0
	}
	var out []ASN
	for a, n := range c {
		if n == best {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, best
}

// Total returns the sum of all votes.
func (c Counter) Total() int {
	t := 0
	for _, n := range c {
		t += n
	}
	return t
}
