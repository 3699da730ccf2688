package mrt

import (
	"bytes"
	"io"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/asn"
	"repro/internal/bgp"
)

func sampleRoutes(t *testing.T) []bgp.Route {
	t.Helper()
	routes, err := bgp.ReadRoutes(strings.NewReader(`
8.0.0.0/8|3356 15169
8.0.0.0/8|174 15169
8.8.8.0/24|174 3356 15169
10.10.0.0/16|64496 {64500,64501}
2001:db8::/32|6939 64499
`))
	if err != nil {
		t.Fatal(err)
	}
	return routes
}

func TestWriteReadRoundTrip(t *testing.T) {
	routes := sampleRoutes(t)
	var buf bytes.Buffer
	if err := Write(&buf, routes); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(routes) {
		t.Fatalf("round trip: %d routes, want %d", len(got), len(routes))
	}
	// Read groups by prefix but preserves every (prefix, path) pair.
	type key struct {
		prefix string
		path   string
	}
	want := make(map[key]int)
	for _, r := range routes {
		want[key{r.Prefix.String(), pathString(r)}]++
	}
	for _, r := range got {
		k := key{r.Prefix.String(), pathString(r)}
		if want[k] == 0 {
			t.Errorf("unexpected route %v %s", r.Prefix, pathString(r))
			continue
		}
		want[k]--
	}
	for k, n := range want {
		if n != 0 {
			t.Errorf("missing route %v ×%d", k, n)
		}
	}
}

func pathString(r bgp.Route) string {
	var sb strings.Builder
	for _, e := range r.Path {
		if e.IsSet() {
			sb.WriteString("{")
			for _, a := range e.Set {
				sb.WriteString(a.String())
			}
			sb.WriteString("}")
		} else {
			sb.WriteString(e.AS.String())
		}
		sb.WriteByte(' ')
	}
	return sb.String()
}

func TestReadProducesUsableTable(t *testing.T) {
	routes := sampleRoutes(t)
	var buf bytes.Buffer
	if err := Write(&buf, routes); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tbl := bgp.NewTable(got)
	origin, p, ok := tbl.Origin(netip.MustParseAddr("8.8.8.8"))
	if !ok || origin != 15169 || p.Bits() != 24 {
		t.Errorf("LPM over MRT routes: %v %v %v", origin, p, ok)
	}
	origin, _, ok = tbl.Origin(netip.MustParseAddr("2001:db8::1"))
	if !ok || origin != 64499 {
		t.Errorf("v6 origin: %v %v", origin, ok)
	}
}

func TestReadEmptyAndTruncated(t *testing.T) {
	if routes, err := Read(bytes.NewReader(nil)); err != nil || len(routes) != 0 {
		t.Errorf("empty stream: %v %v", routes, err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, sampleRoutes(t)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Truncate mid-record.
	if _, err := Read(bytes.NewReader(data[:len(data)-5])); err == nil {
		t.Error("truncated stream accepted")
	}
	// Corrupt the length field of the first record to something huge.
	bad := append([]byte(nil), data...)
	bad[8], bad[9], bad[10], bad[11] = 0xff, 0xff, 0xff, 0xff
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("implausible record length accepted")
	}
}

func TestReadSkipsForeignRecordTypes(t *testing.T) {
	// A BGP4MP (type 16) record followed by a valid dump.
	var buf bytes.Buffer
	foreign := make([]byte, 12+4)
	foreign[4], foreign[5] = 0, 16
	foreign[11] = 4
	buf.Write(foreign)
	if err := Write(&buf, sampleRoutes(t)); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sampleRoutes(t)) {
		t.Errorf("got %d routes", len(got))
	}
}

// peerPrependDump is a dump whose one path does not start with its
// peer's AS: peer AS 65000, path [3356 15169]. Write always synthesizes
// peers from path[0], so the records are crafted by hand.
func peerPrependDump(t testing.TB) []byte {
	t.Helper()
	var body []byte
	body = append(body, 0, 0, 0, 0) // collector id
	body = be16(body, 0)            // view name
	body = be16(body, 1)            // 1 peer
	body = append(body, 0x02)
	body = append(body, 0, 0, 0, 0)
	body = append(body, 0, 0, 0, 0)
	body = be32(body, 65000)
	var buf bytes.Buffer
	if err := writeRecord(&buf, subtypePeerIndexTable, body); err != nil {
		t.Fatal(err)
	}
	var rib []byte
	rib = be32(rib, 0)
	rib = append(rib, 8) // /8
	rib = append(rib, 8) // 8.0.0.0
	rib = be16(rib, 1)   // one entry
	rib = be16(rib, 0)   // peer 0
	rib = append(rib, 0, 0, 0, 0)
	attr, err := encodeASPathAttr([]bgp.PathElem{{AS: 3356}, {AS: 15169}})
	if err != nil {
		t.Fatal(err)
	}
	rib = be16(rib, uint16(len(attr)))
	rib = append(rib, attr...)
	if err := writeRecord(&buf, subtypeRIBIPv4Unicast, rib); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPeerPrepending(t *testing.T) {
	// A path that does not start with the peer AS gets the peer
	// prepended.
	routes, err := Read(bytes.NewReader(peerPrependDump(t)))
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 1 {
		t.Fatalf("routes = %d", len(routes))
	}
	path := routes[0].ASPath()
	if len(path) != 3 || path[0] != 65000 || path[2] != 15169 {
		t.Errorf("path = %v, want peer prepended", path)
	}
}

func TestLargeSequenceSplitting(t *testing.T) {
	// Paths longer than 255 ASes must split across segments.
	var path []bgp.PathElem
	for i := 0; i < 300; i++ {
		path = append(path, bgp.PathElem{AS: asn.ASN(1000 + i)})
	}
	attr, err := encodeASPathAttr(path)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := asPathValue(attr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSegments(nil, seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 300 {
		t.Fatalf("segments lost elements: %d", len(got))
	}
	for i := range got {
		if got[i].AS != path[i].AS {
			t.Fatalf("element %d mismatch", i)
		}
	}
}

// bgpRoutes provides a seed corpus for the fuzzer without a *testing.T.
func bgpRoutes() ([]bgp.Route, error) {
	return bgp.ReadRoutes(strings.NewReader("8.0.0.0/8|3356 15169\n"))
}

// fixtureDump is a fixed RIB for the allocation ceiling and the
// benchmark: 2 000 /24s seen from three peers each, paths of two to six
// ASes, every hundredth ending in an AS_SET, written by Write.
func fixtureDump(t testing.TB) []byte {
	t.Helper()
	peers := []asn.ASN{3356, 174, 6939}
	var routes []bgp.Route
	for i := 0; i < 2000; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
		for k, peer := range peers {
			path := []bgp.PathElem{{AS: peer}}
			for h := 1; h < 2+(i+k)%5; h++ {
				path = append(path, bgp.PathElem{AS: asn.ASN(64512 + (i*7+h*13+k)%1000)})
			}
			if i%100 == 0 {
				path = append(path, bgp.PathElem{Set: []asn.ASN{65001, 65002}})
			}
			routes = append(routes, bgp.Route{Prefix: p, Path: path})
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, routes); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadMatchesOracle holds Read to the reader it replaced on the fixed
// dumps, and checks that no two of its paths share spare capacity: an
// append to one must not write into the next.
func TestReadMatchesOracle(t *testing.T) {
	var sample bytes.Buffer
	if err := Write(&sample, sampleRoutes(t)); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"sample": sample.Bytes(), "prepend": peerPrependDump(t), "fixture": fixtureDump(t),
	} {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := oracleRead(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Read and the oracle disagree", name)
		}
		for k := range got {
			if p := got[k].Path; cap(p) != len(p) {
				t.Fatalf("%s: route %d: path of %d elements has capacity %d", name, k, len(p), cap(p))
			}
		}
		if len(got) > 1 {
			before := slices.Clone(got[1].Path)
			_ = append(got[0].Path, bgp.PathElem{AS: 1})
			if !reflect.DeepEqual(got[1].Path, before) {
				t.Fatalf("%s: an append to one path changed the next", name)
			}
		}
	}
}

// TestReadAllocs is the allocation ceiling of Read on the fixture: one
// record buffer and shared path chunks. It measured 111 allocations (the
// reader before: 29 443); the ceiling leaves about 15 %.
func TestReadAllocs(t *testing.T) {
	data := fixtureDump(t)
	const ceiling = 130
	read := func(f func(io.Reader) ([]bgp.Route, error)) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := f(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	got, old := read(Read), read(oracleRead)
	t.Logf("Read: %.0f allocations, the replaced reader %.0f", got, old)
	if got > ceiling {
		t.Errorf("Read made %.0f allocations on the fixture, above its ceiling of %d", got, ceiling)
	}
	if old <= ceiling {
		t.Errorf("the replaced reader made %.0f allocations, within the ceiling of %d: the ceiling no longer tells them apart", old, ceiling)
	}
}

// benchRoutes keeps the compiler from discarding a read.
var benchRoutes []bgp.Route

func BenchmarkMRTRead(b *testing.B) {
	data := fixtureDump(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if benchRoutes, err = Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
