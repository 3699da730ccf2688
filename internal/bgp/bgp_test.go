package bgp

import (
	"bytes"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"repro/internal/asn"
)

const sampleRIB = `
# comment line
8.0.0.0/8|3356 3356 3356 15169
8.8.8.0/24|174 15169
10.10.0.0/16|64496 {64500,64501}
2001:db8::/32|6939 64499
`

func TestReadRoutes(t *testing.T) {
	routes, err := ReadRoutes(strings.NewReader(sampleRIB))
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 4 {
		t.Fatalf("got %d routes", len(routes))
	}
	if routes[0].Prefix != netip.MustParsePrefix("8.0.0.0/8") {
		t.Errorf("prefix = %v", routes[0].Prefix)
	}
	if got := routes[0].Origins(); len(got) != 1 || got[0] != 15169 {
		t.Errorf("origins = %v", got)
	}
	// AS_SET origin yields every member.
	if got := routes[2].Origins(); len(got) != 2 || got[0] != 64500 || got[1] != 64501 {
		t.Errorf("AS_SET origins = %v", got)
	}
}

func TestReadRoutesErrors(t *testing.T) {
	cases := []string{
		"8.0.0.0/8 3356",       // missing pipe
		"not-a-prefix|3356",    // bad prefix
		"8.0.0.0/8|",           // empty path
		"8.0.0.0/8|33x6",       // bad asn
		"8.0.0.0/8|{}",         // empty set
		"8.0.0.0/8|3356 {1,x}", // bad set member
	}
	for _, c := range cases {
		if _, err := ReadRoutes(strings.NewReader(c)); err == nil {
			t.Errorf("expected error for %q", c)
		}
	}
}

func TestASPathCleaning(t *testing.T) {
	path, err := ParsePath("3356 3356 174 {64500,64501} 174")
	if err != nil {
		t.Fatal(err)
	}
	r := Route{Path: path}
	got := r.ASPath()
	want := []asn.ASN{3356, 174, 64500, 174}
	if len(got) != len(want) {
		t.Fatalf("ASPath = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ASPath = %v, want %v", got, want)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	routes, err := ReadRoutes(strings.NewReader(sampleRIB))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRoutes(&buf, routes); err != nil {
		t.Fatal(err)
	}
	again, err := ReadRoutes(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(routes) {
		t.Fatalf("round trip count %d != %d", len(again), len(routes))
	}
	for i := range routes {
		if routes[i].Prefix != again[i].Prefix {
			t.Errorf("route %d prefix mismatch", i)
		}
		if len(routes[i].Path) != len(again[i].Path) {
			t.Errorf("route %d path length mismatch", i)
		}
	}
}

func TestTableLongestPrefixMatch(t *testing.T) {
	routes, _ := ReadRoutes(strings.NewReader(sampleRIB))
	tbl := NewTable(routes)
	origin, p, ok := tbl.Origin(netip.MustParseAddr("8.8.8.8"))
	if !ok || origin != 15169 || p != netip.MustParsePrefix("8.8.8.0/24") {
		t.Errorf("LPM: %v %v %v", origin, p, ok)
	}
	origin, p, ok = tbl.Origin(netip.MustParseAddr("8.1.1.1"))
	if !ok || origin != 15169 || p.Bits() != 8 {
		t.Errorf("covering: %v %v %v", origin, p, ok)
	}
	if _, _, ok := tbl.Origin(netip.MustParseAddr("9.9.9.9")); ok {
		t.Error("miss expected")
	}
}

func TestTableMOAS(t *testing.T) {
	rib := `
198.51.100.0/24|3356 64496
198.51.100.0/24|174 64496
198.51.100.0/24|1299 64497
`
	routes, _ := ReadRoutes(strings.NewReader(rib))
	tbl := NewTable(routes)
	// 64496 announced twice, 64497 once: dominant origin wins.
	origin, _, ok := tbl.Origin(netip.MustParseAddr("198.51.100.1"))
	if !ok || origin != 64496 {
		t.Errorf("dominant origin = %v", origin)
	}
	all, _, _ := tbl.Origins(netip.MustParseAddr("198.51.100.1"))
	if len(all) != 2 || all[0] != 64496 || all[1] != 64497 {
		t.Errorf("all origins = %v", all)
	}
}

func TestTableMOASTieBreaksLowASN(t *testing.T) {
	rib := `
198.51.100.0/24|3356 64497
198.51.100.0/24|174 64496
`
	routes, _ := ReadRoutes(strings.NewReader(rib))
	tbl := NewTable(routes)
	origin, _, _ := tbl.Origin(netip.MustParseAddr("198.51.100.1"))
	if origin != 64496 {
		t.Errorf("tie should pick smaller ASN, got %v", origin)
	}
}

func TestCoversPrefix(t *testing.T) {
	routes, _ := ReadRoutes(strings.NewReader(sampleRIB))
	tbl := NewTable(routes)
	if !tbl.CoversPrefix(netip.MustParsePrefix("8.1.0.0/16")) {
		t.Error("covered /16 not detected")
	}
	if tbl.CoversPrefix(netip.MustParsePrefix("9.0.0.0/16")) {
		t.Error("uncovered /16 reported covered")
	}
}

func TestTableCounts(t *testing.T) {
	routes, _ := ReadRoutes(strings.NewReader(sampleRIB))
	tbl := NewTable(routes)
	if tbl.NumRoutes() != 4 {
		t.Errorf("NumRoutes = %d", tbl.NumRoutes())
	}
	if tbl.NumPrefixes() != 4 {
		t.Errorf("NumPrefixes = %d", tbl.NumPrefixes())
	}
}

func TestTableWalk(t *testing.T) {
	routes, _ := ReadRoutes(strings.NewReader(sampleRIB))
	tbl := NewTable(routes)
	n := 0
	tbl.Walk(func(p netip.Prefix, origin asn.ASN) bool {
		n++
		return true
	})
	if n != 4 {
		t.Errorf("walk visited %d", n)
	}
}

// TestTableMatchesOracle holds Origin, Origins and Walk to the map-based
// table on a MOAS-heavy table: nested prefixes, up to four origins a
// prefix, AS_SET origins with repeats, and ties on the count.
func TestTableMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var routes []Route
	for i := 0; i < 3000; i++ {
		bits := 16 + rng.Intn(9)
		p, _ := netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(8)), 0}).Prefix(bits)
		elem := PathElem{AS: asn.ASN(64500 + rng.Intn(4))}
		if rng.Intn(10) == 0 {
			elem = PathElem{Set: []asn.ASN{asn.ASN(64500 + rng.Intn(4)), asn.ASN(64500 + rng.Intn(4))}}
			slices.Sort(elem.Set)
		}
		routes = append(routes, Route{Prefix: p, Path: []PathElem{{AS: 3356}, elem}})
	}
	tbl, o := NewTable(routes), oracleTable{}
	for _, r := range routes {
		o.add(r)
	}
	moas := 0
	for _, m := range o {
		if len(m) > 1 {
			moas++
		}
	}
	if moas < 50 {
		t.Fatalf("the fixture has %d MOAS prefixes; it is here for them", moas)
	}
	for i := 0; i < 5000; i++ {
		addr := netip.AddrFrom4([4]byte{10, byte(rng.Intn(5)), byte(rng.Intn(9)), byte(rng.Intn(256))})
		a, p, ok := tbl.Origin(addr)
		wa, wp, wok := o.origin(addr)
		if a != wa || p != wp || ok != wok {
			t.Fatalf("Origin(%v) = %v %v %v, the oracle %v %v %v", addr, a, p, ok, wa, wp, wok)
		}
		as, p, ok := tbl.Origins(addr)
		was, wp, wok := o.origins(addr)
		if !slices.Equal(as, was) || p != wp || ok != wok {
			t.Fatalf("Origins(%v) = %v %v %v, the oracle %v %v %v", addr, as, p, ok, was, wp, wok)
		}
	}
	n := 0
	tbl.Walk(func(p netip.Prefix, a asn.ASN) bool {
		n++
		if want := dominant(o[p]); a != want {
			t.Fatalf("Walk: %v → %v, the oracle %v", p, a, want)
		}
		return true
	})
	if n != len(o) {
		t.Errorf("Walk visited %d prefixes of %d", n, len(o))
	}
}
