// Package asn defines the AS-number type and the one AS-set type shared
// by every layer of the system. Autonomous System numbers are 32-bit
// (RFC 6793); 0 is reserved and used throughout this codebase as the
// "no AS / unannounced" sentinel.
//
// SmallSet is a sorted slice, and it is the only set: the origin and
// destination AS sets the IR graph hangs on every interface, link and
// router (most hold one or two members), the refinement vote's working
// sets, and the relationship graph's neighbour sets and customer cones.
// Those last are the largest, and still small: on the graphs asrel.Infer
// builds from a simulated Internet of 406 ASes, an AS's neighbours
// (providers, customers and peers together) number a median of 2 and at
// most 54, and its cone a median of 1 and at most 342; at 3 426 ASes,
// neighbours a median of 1 and at most 272, cones up to 3 388. A binary
// search over such a slice costs what a hash probe does, and a reader
// ranges over the members in order. Tally is the vote counter of the
// same shape.
package asn

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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

// ParseBytes is Parse over bytes. Up to ten decimal digits, with or
// without the "AS" prefix, are read in place; anything else is Parse's
// call, so every rejection and its error stay Parse's.
func ParseBytes(b []byte) (ASN, error) {
	d := b
	if len(d) > 2 && (d[0] == 'A' || d[0] == 'a') && (d[1] == 'S' || d[1] == 's') {
		d = d[2:]
	}
	if len(d) == 0 || len(d) > 10 {
		return Parse(string(b))
	}
	var v uint64
	for _, c := range d {
		if c < '0' || c > '9' {
			return Parse(string(b))
		}
		v = v*10 + uint64(c-'0')
	}
	if v > math.MaxUint32 {
		return Parse(string(b))
	}
	return ASN(v), nil
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

// Vote is one Tally entry: an AS and the votes it holds.
type Vote struct {
	AS ASN
	N  int32
}

// Tally counts votes per AS as an ascending, duplicate-free slice; it
// backs the voting heuristics of the refinement loop (paper §6.1, §6.2)
// and of the baselines. Every entry holds at least one vote — one that
// drops to none is removed — so an empty tally means nothing voted, and
// a walk meets the ASes in order. The zero value is the empty tally.
type Tally []Vote

func (t Tally) find(a ASN) (int, bool) {
	return slices.BinarySearchFunc(t, a, func(v Vote, a ASN) int { return cmp.Compare(v.AS, a) })
}

// Add gives a n more votes; n may be negative.
//
//lint:hotpath
func (t *Tally) Add(a ASN, n int32) {
	at, ok := t.find(a)
	if !ok {
		*t = slices.Insert(*t, at, Vote{AS: a})
	}
	if (*t)[at].N += n; (*t)[at].N <= 0 {
		*t = slices.Delete(*t, at, at+1)
	}
}

// Count returns a's votes, 0 when it holds none.
func (t Tally) Count(a ASN) int32 {
	if at, ok := t.find(a); ok {
		return t[at].N
	}
	return 0
}

// Max returns the ASes holding the most votes, ascending in dst[:0], and
// that count; (dst[:0], 0) for an empty tally.
//
//lint:hotpath
func (t Tally) Max(dst []ASN) ([]ASN, int32) {
	dst = dst[:0]
	var best int32
	for _, v := range t {
		switch {
		case v.N > best:
			best = v.N
			dst = append(dst[:0], v.AS)
		case v.N == best:
			dst = append(dst, v.AS)
		}
	}
	return dst, best
}
