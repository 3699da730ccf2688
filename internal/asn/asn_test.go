package asn

import (
	"math/rand"
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
	s := NewSet(3, 1, 2)
	if s.Len() != 3 || !s.Has(1) || !s.Has(2) || !s.Has(3) || s.Has(4) {
		t.Errorf("set contents wrong: %v", s)
	}
	s.Add(4)
	s.Add(4)
	if s.Len() != 4 {
		t.Errorf("duplicate add changed length: %d", s.Len())
	}
	sorted := s.Sorted()
	if !sort.SliceIsSorted(sorted, func(i, j int) bool { return sorted[i] < sorted[j] }) {
		t.Errorf("Sorted not sorted: %v", sorted)
	}
}

func TestSetEqual(t *testing.T) {
	a, b := NewSet(1, 2), NewSet(2, 1)
	if !a.Equal(b) {
		t.Error("same members not equal")
	}
	b.Add(3)
	if a.Equal(b) || b.Equal(a) {
		t.Error("a set equals its strict superset")
	}
	if NewSet(1).Equal(NewSet(2)) {
		t.Error("distinct singletons equal")
	}
}

func TestSetAddAll(t *testing.T) {
	a := NewSet(1)
	a.AddAll(NewSet(2, 3))
	if a.Len() != 3 {
		t.Errorf("AddAll: %v", a)
	}
}

func TestCounterMax(t *testing.T) {
	c := make(Counter)
	if top, n := c.Max(); top != nil || n != 0 {
		t.Errorf("empty counter max = %v, %d", top, n)
	}
	c.Inc(1, 2)
	c.Inc(2, 3)
	c.Inc(3, 3)
	top, n := c.Max()
	if n != 3 || len(top) != 2 || top[0] != 2 || top[1] != 3 {
		t.Errorf("max = %v, %d", top, n)
	}
	if c.Total() != 8 {
		t.Errorf("total = %d", c.Total())
	}
}

func TestCounterMaxIgnoresNonPositive(t *testing.T) {
	c := make(Counter)
	c.Inc(1, 1)
	c.Inc(1, -1)
	if top, n := c.Max(); n != 0 || top != nil {
		t.Errorf("zeroed counter max = %v, %d", top, n)
	}
}

// Property: Sorted returns each member exactly once.
func TestSortedMembership(t *testing.T) {
	f := func(vals []uint32) bool {
		s := NewSet()
		uniq := make(map[ASN]bool)
		for _, v := range vals {
			s.Add(ASN(v))
			uniq[ASN(v)] = true
		}
		sorted := s.Sorted()
		if len(sorted) != len(uniq) {
			return false
		}
		for _, a := range sorted {
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

// smallSetOps is a random sequence of SmallSet operations; values are
// drawn from a small range so that sequences hit present members,
// removals of absent ones, and overlapping unions.
type smallSetOps []struct {
	Op   uint8
	A    uint8
	More []uint8
}

// TestSmallSetMatchesSetModel holds SmallSet to the hash Set over seeded
// random Add/Remove/AddAll sequences: after every step the slice is
// ascending and duplicate-free, holds exactly the model's members, and
// Has, Len and Equal agree with the model's.
func TestSmallSetMatchesSetModel(t *testing.T) {
	f := func(ops smallSetOps) bool {
		var s SmallSet
		model := NewSet()
		for _, op := range ops {
			a := ASN(op.A % 32)
			switch op.Op % 3 {
			case 0:
				if s.Add(a) == model.Has(a) {
					return false // Add reports whether a was absent
				}
				model.Add(a)
			case 1:
				s.Remove(a)
				delete(model, a)
			case 2:
				other := NewSet()
				for _, m := range op.More {
					other.Add(ASN(m % 32))
				}
				s.AddAll(other.Sorted())
				model.AddAll(other)
			}
			for i := 1; i < len(s); i++ {
				if s[i-1] >= s[i] {
					return false
				}
			}
			want := SmallSet(model.Sorted())
			if s.Len() != model.Len() || !s.Equal(want) || !want.Equal(s) {
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
