package netutil

import (
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddrUint32RoundTrip(t *testing.T) {
	cases := []string{"0.0.0.0", "10.1.2.3", "192.168.255.1", "255.255.255.255", "8.8.8.8"}
	for _, s := range cases {
		a := netip.MustParseAddr(s)
		if got := Uint32ToAddr(AddrToUint32(a)); got != a {
			t.Errorf("round trip %s: got %v", s, got)
		}
	}
}

func TestAddrUint32RoundTripQuick(t *testing.T) {
	f := func(v uint32) bool {
		return AddrToUint32(Uint32ToAddr(v)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddrToUint32PanicsOnV6(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for IPv6 input")
		}
	}()
	AddrToUint32(netip.MustParseAddr("2001:db8::1"))
}

func TestSlash24(t *testing.T) {
	if got := Slash24(netip.MustParseAddr("203.0.114.77")); got != netip.MustParsePrefix("203.0.114.0/24") {
		t.Errorf("got %v", got)
	}
	if got := Slash24(netip.MustParseAddr("2001:db8:1:2::3")); got != netip.MustParsePrefix("2001:db8:1::/48") {
		t.Errorf("got %v", got)
	}
}

func TestIsSpecial(t *testing.T) {
	special := []string{
		"10.0.0.1", "172.16.5.5", "192.168.1.1", "127.0.0.1", "169.254.1.1",
		"100.64.0.1", "224.0.0.5", "240.0.0.1", "0.1.2.3", "198.18.0.1",
		"fe80::1", "fc00::1", "ff02::1", "2001:db8::1",
	}
	for _, s := range special {
		if !IsSpecial(netip.MustParseAddr(s)) {
			t.Errorf("%s should be special", s)
		}
	}
	public := []string{"8.8.8.8", "1.1.1.1", "203.1.113.1", "100.128.0.1", "2600::1"}
	for _, s := range public {
		if IsSpecial(netip.MustParseAddr(s)) {
			t.Errorf("%s should not be special", s)
		}
	}
	if !IsSpecial(netip.Addr{}) {
		t.Error("invalid Addr should be special")
	}
}

func TestIsSpecialMapped(t *testing.T) {
	a := netip.AddrFrom16(netip.MustParseAddr("10.0.0.1").As16())
	if !IsSpecial(a) {
		t.Error("4-in-6 mapped private address should be special")
	}
}

func TestRangeToPrefixesExact(t *testing.T) {
	ps, err := RangeToPrefixes(netip.MustParseAddr("192.0.2.0"), 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 || ps[0] != netip.MustParsePrefix("192.0.2.0/24") {
		t.Errorf("got %v", ps)
	}
}

func TestRangeToPrefixesNonPow2(t *testing.T) {
	ps, err := RangeToPrefixes(netip.MustParseAddr("192.0.2.0"), 768)
	if err != nil {
		t.Fatal(err)
	}
	// 768 = 512 + 256.
	want := []netip.Prefix{
		netip.MustParsePrefix("192.0.2.0/23"),
		netip.MustParsePrefix("192.0.4.0/24"),
	}
	if len(ps) != len(want) {
		t.Fatalf("got %v want %v", ps, want)
	}
	for i := range want {
		if ps[i] != want[i] {
			t.Errorf("prefix %d: got %v want %v", i, ps[i], want[i])
		}
	}
}

func TestRangeToPrefixesUnaligned(t *testing.T) {
	// Start not aligned to the count: 192.0.2.128 + 256 addrs.
	ps, err := RangeToPrefixes(netip.MustParseAddr("192.0.2.128"), 256)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, p := range ps {
		total += PrefixSize(p)
	}
	if total != 256 {
		t.Errorf("prefixes cover %d addresses, want 256 (%v)", total, ps)
	}
	if ps[0].Addr() != netip.MustParseAddr("192.0.2.128") {
		t.Errorf("first prefix %v does not start at range start", ps[0])
	}
}

func TestRangeToPrefixesErrors(t *testing.T) {
	if _, err := RangeToPrefixes(netip.MustParseAddr("2001:db8::"), 16); err == nil {
		t.Error("expected error for IPv6")
	}
	if _, err := RangeToPrefixes(netip.MustParseAddr("1.2.3.4"), 0); err == nil {
		t.Error("expected error for zero count")
	}
	if _, err := RangeToPrefixes(netip.MustParseAddr("255.255.255.0"), 1024); err == nil {
		t.Error("expected error for overflow")
	}
}

// Property: RangeToPrefixes always covers exactly the requested range with
// non-overlapping, in-order prefixes.
func TestRangeToPrefixesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		start := rng.Uint32() &^ 0xff // keep away from overflow most of the time
		count := uint64(rng.Intn(100000) + 1)
		if uint64(start)+count > 1<<32 {
			continue
		}
		ps, err := RangeToPrefixes(Uint32ToAddr(start), count)
		if err != nil {
			t.Fatalf("start=%v count=%d: %v", Uint32ToAddr(start), count, err)
		}
		cur := uint64(start)
		for _, p := range ps {
			if uint64(AddrToUint32(p.Addr())) != cur {
				t.Fatalf("gap or overlap at %v (expected start %v)", p, Uint32ToAddr(uint32(cur)))
			}
			cur += PrefixSize(p)
		}
		if cur != uint64(start)+count {
			t.Fatalf("covered %d addrs, want %d", cur-uint64(start), count)
		}
	}
}

func TestNthAddr(t *testing.T) {
	p := netip.MustParsePrefix("10.0.0.0/30")
	if got := NthAddr(p, 1); got != netip.MustParseAddr("10.0.0.1") {
		t.Errorf("got %v", got)
	}
	if got := NthAddr(p, 4); got.IsValid() {
		t.Errorf("offset beyond prefix should be invalid, got %v", got)
	}
	if got := NthAddr(netip.MustParsePrefix("2001:db8::/64"), 0); got.IsValid() {
		t.Errorf("IPv6 unsupported, got %v", got)
	}
}

func TestSplitPrefix(t *testing.T) {
	ps, err := SplitPrefix(netip.MustParsePrefix("10.0.0.0/22"), 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24"}
	if len(ps) != len(want) {
		t.Fatalf("got %v", ps)
	}
	for i, w := range want {
		if ps[i] != netip.MustParsePrefix(w) {
			t.Errorf("split %d: got %v want %v", i, ps[i], w)
		}
	}
	if _, err := SplitPrefix(netip.MustParsePrefix("10.0.0.0/30"), 4); err == nil {
		t.Error("expected error splitting past /32")
	}
}

func TestPrefixSize(t *testing.T) {
	if got := PrefixSize(netip.MustParsePrefix("10.0.0.0/24")); got != 256 {
		t.Errorf("got %d", got)
	}
	if got := PrefixSize(netip.MustParsePrefix("0.0.0.0/0")); got != 1<<32 {
		t.Errorf("got %d", got)
	}
	if got := PrefixSize(netip.MustParsePrefix("2001:db8::/32")); got != 0 {
		t.Errorf("IPv6 should report 0, got %d", got)
	}
}

// TestCutFieldMatchesFields walks strings and their bytes field by
// field with CutField and requires strings.Fields' fields: ASCII and
// Unicode spaces, invalid UTF-8, and random strings.
func TestCutFieldMatchesFields(t *testing.T) {
	walk := func(s string) []string {
		var out []string
		for f, rest := CutField(s); f != ""; f, rest = CutField(rest) {
			out = append(out, f)
		}
		return out
	}
	walkBytes := func(s string) []string {
		var out []string
		for f, rest := CutField([]byte(s)); len(f) > 0; f, rest = CutField(rest) {
			out = append(out, string(f))
		}
		return out
	}
	check := func(s string) bool {
		return slices.Equal(walk(s), strings.Fields(s)) && slices.Equal(walkBytes(s), strings.Fields(s))
	}
	for _, s := range []string{"", " ", "a", " a b\tc\n", "1.2.3.4 5.6.7.8", "x y\u0085", "\xff \xc2", "{1,2} 3\v4\f"} {
		if !check(s) {
			t.Errorf("CutField splits %q into %q, strings.Fields into %q", s, walk(s), strings.Fields(s))
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestParseAddrMatchesNetip holds ParseAddr to netip.ParseAddr, address
// and error text, on dotted quads at and past their limits and on text
// the in-place path hands on.
func TestParseAddrMatchesNetip(t *testing.T) {
	for _, s := range []string{"1.2.3.4", "0.0.0.0", "255.255.255.255", "1.2.3.256", "1.2.3.04", "1.2.3", "1.2.3.4.5",
		"1..3.4", ".1.2.3", "1.2.3.", "", "::ffff:1.2.3.4", "2001:db8::1", "fe80::1%eth0", "1.2.3.4 ", "x"} {
		got, err := ParseAddr([]byte(s))
		want, werr := netip.ParseAddr(s)
		if got != want || (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Errorf("ParseAddr(%q) = %v, %v; netip.ParseAddr: %v, %v", s, got, err, want, werr)
		}
	}
}
