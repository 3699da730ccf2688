package asn

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestString(t *testing.T) {
	if got := ASN(65001).String(); got != "AS65001" {
		t.Errorf("got %q", got)
	}
	if got := None.String(); got != "AS?" {
		t.Errorf("got %q", got)
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want ASN
		err  bool
	}{
		{"65001", 65001, false},
		{"AS65001", 65001, false},
		{"as3356", 3356, false},
		{"4294967295", 4294967295, false},
		{"4294967296", 0, true},
		{"", 0, true},
		{"ASX", 0, true},
		{"-5", 0, true},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if (err != nil) != c.err {
			t.Errorf("Parse(%q) err=%v, want err=%v", c.in, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestParseBytesMatchesParse holds ParseBytes to Parse, number and
// error text, on the in-place path's limits and on text it hands on.
func TestParseBytesMatchesParse(t *testing.T) {
	for _, s := range []string{"65001", "AS65001", "as3356", "aS1", "0", "007", "4294967295", "4294967296",
		"0004294967295", "99999999999", "", "AS", "ASX", "-5", "+5", "1_000", "12a", "A1", "S1", "AS+1"} {
		got, err := ParseBytes([]byte(s))
		want, werr := Parse(s)
		if got != want || (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Errorf("ParseBytes(%q) = %v, %v; Parse: %v, %v", s, got, err, want, werr)
		}
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		if v == 0 {
			return true // None stringifies specially
		}
		got, err := Parse(ASN(v).String())
		return err == nil && got == ASN(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetBasics(t *testing.T) {
	var s SmallSet
	for _, a := range []ASN{3, 1, 2} {
		if !s.Add(a) {
			t.Errorf("Add(%v) of an absent member reported present", a)
		}
	}
	if s.Len() != 3 || !s.Has(1) || !s.Has(2) || !s.Has(3) || s.Has(4) {
		t.Errorf("set contents wrong: %v", s)
	}
	s.Add(4)
	if s.Add(4) {
		t.Error("Add of a present member reported absent")
	}
	if s.Len() != 4 {
		t.Errorf("duplicate add changed length: %d", s.Len())
	}
	if !slices.IsSorted(s) {
		t.Errorf("members not ascending: %v", s)
	}
}

func TestSetEqual(t *testing.T) {
	var a, b SmallSet
	a.Add(1)
	a.Add(2)
	b.Add(2)
	b.Add(1)
	if !a.Equal(b) {
		t.Error("same members not equal")
	}
	b.Add(3)
	if a.Equal(b) || b.Equal(a) {
		t.Error("a set equals its strict superset")
	}
	if (SmallSet{1}).Equal(SmallSet{2}) {
		t.Error("distinct singletons equal")
	}
}

func TestSetAddAll(t *testing.T) {
	a := SmallSet{1, 3}
	a.AddAll(SmallSet{2, 3, 4})
	if !a.Equal(SmallSet{1, 2, 3, 4}) {
		t.Errorf("AddAll: %v", a)
	}
}

// TestCounterMax: Tally.Max is the counter's maximum, ties ascending.
func TestCounterMax(t *testing.T) {
	var c Tally
	if top, n := c.Max(nil); len(top) != 0 || n != 0 {
		t.Errorf("empty tally max = %v, %d", top, n)
	}
	c.Add(1, 2)
	c.Add(3, 3)
	c.Add(2, 3)
	top, n := c.Max(nil)
	if n != 3 || !slices.Equal(top, []ASN{2, 3}) {
		t.Errorf("max = %v, %d", top, n)
	}
	if c.Count(1) != 2 || c.Count(4) != 0 {
		t.Errorf("counts = %d, %d", c.Count(1), c.Count(4))
	}
}

// TestCounterMaxIgnoresNonPositive: an AS whose votes fall to zero
// leaves the tally.
func TestCounterMaxIgnoresNonPositive(t *testing.T) {
	var c Tally
	c.Add(1, 1)
	c.Add(1, -1)
	if top, n := c.Max(nil); n != 0 || len(top) != 0 || len(c) != 0 {
		t.Errorf("zeroed tally max = %v, %d (entries %v)", top, n, c)
	}
}

// Property: a SmallSet built by Add holds each member exactly once, in
// ascending order.
func TestSortedMembership(t *testing.T) {
	f := func(vals []uint32) bool {
		var s SmallSet
		uniq := make(map[ASN]bool)
		for _, v := range vals {
			s.Add(ASN(v))
			uniq[ASN(v)] = true
		}
		if len(s) != len(uniq) || !slices.IsSorted(s) {
			return false
		}
		for _, a := range s {
			if !uniq[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// hashSet and counter are the AS set and the vote counter as this
// package held them before SmallSet and Tally became the only ones: a
// hash set and a hash map of counts. The model tests hold the sorted
// forms to them.
type hashSet map[ASN]struct{}

func (s hashSet) Has(a ASN) bool {
	_, ok := s[a]
	return ok
}

func (s hashSet) sorted() []ASN {
	out := make([]ASN, 0, len(s))
	for a := range s {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

type counter map[ASN]int

// max returns the ASes with the highest vote count, sorted ascending,
// and the count itself. An empty counter returns (nil, 0).
func (c counter) max() ([]ASN, int) {
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

// smallSetOps is a random sequence of SmallSet operations; values are
// drawn from a small range so that sequences hit present members,
// removals of absent ones, and overlapping unions.
type smallSetOps []struct {
	Op   uint8
	A    uint8
	More []uint8
}

// TestSmallSetMatchesSetModel holds SmallSet to a hash set over seeded
// random Add/Remove/AddAll sequences: after every step the slice is
// ascending and duplicate-free, holds exactly the model's members, and
// Has, Len and Equal agree with the model's.
func TestSmallSetMatchesSetModel(t *testing.T) {
	f := func(ops smallSetOps) bool {
		var s SmallSet
		model := make(hashSet)
		for _, op := range ops {
			a := ASN(op.A % 32)
			switch op.Op % 3 {
			case 0:
				if s.Add(a) == model.Has(a) {
					return false // Add reports whether a was absent
				}
				model[a] = struct{}{}
			case 1:
				s.Remove(a)
				delete(model, a)
			case 2:
				other := make(hashSet)
				for _, m := range op.More {
					other[ASN(m%32)] = struct{}{}
				}
				s.AddAll(other.sorted())
				for m := range other {
					model[m] = struct{}{}
				}
			}
			for i := 1; i < len(s); i++ {
				if s[i-1] >= s[i] {
					return false
				}
			}
			want := SmallSet(model.sorted())
			if s.Len() != len(model) || !s.Equal(want) || !want.Equal(s) {
				return false
			}
			for v := ASN(0); v < 33; v++ {
				if s.Has(v) != model.Has(v) {
					return false
				}
			}
			if grown := append(want, 99); s.Equal(grown) || grown.Equal(s) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(25))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// tallyOps is one seeded sequence of increments: AS % 8, so entries
// collide, and N ∈ [-2, 3], so counts fall to and below zero.
type tallyOps []struct {
	A uint8
	N uint8
}

// TestTallyMatchesCounterModel holds Tally to a hash-map counter (with
// the delete-at-≤-0 the map-based vote applied by hand) over seeded
// random increment sequences: after every step the entries are
// ascending and duplicate-free, every count agrees, and Max equals the
// counter's max.
func TestTallyMatchesCounterModel(t *testing.T) {
	f := func(ops tallyOps) bool {
		var got Tally
		model := make(counter)
		var top []ASN
		for _, op := range ops {
			a, n := ASN(op.A%8), int(op.N%6)-2
			got.Add(a, int32(n))
			if model[a] += n; model[a] <= 0 {
				delete(model, a)
			}
			for i := 1; i < len(got); i++ {
				if got[i-1].AS >= got[i].AS {
					return false
				}
			}
			if len(got) != len(model) {
				return false
			}
			for v := ASN(0); v < 9; v++ {
				if int(got.Count(v)) != model[v] {
					return false
				}
			}
			wantTop, wantBest := model.max()
			var best int32
			top, best = got.Max(top)
			if !slices.Equal(top, wantTop) || int(best) != wantBest {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(26))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestSmallSetSeenMemberAllocatesNothing: the graph builder asks Has, or
// Adds a member already present, once per hop; neither may allocate.
func TestSmallSetSeenMemberAllocatesNothing(t *testing.T) {
	s := SmallSet{1, 3, 5, 7}
	if n := testing.AllocsPerRun(100, func() {
		if !s.Has(5) || s.Has(4) || s.Add(7) || s.Add(1) {
			t.Fatal("wrong answer")
		}
	}); n != 0 {
		t.Errorf("Has and Add of a present member: %.0f allocations, want 0", n)
	}
}
