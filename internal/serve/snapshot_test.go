package serve

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"net/netip"
	"path/filepath"
	"testing"
)

// makeSnapshot builds a small, valid snapshot whose answers depend on
// salt, so two snapshots over the same address population give
// distinguishable answers — the shape a hot swap serves.
func makeSnapshot(salt uint32) *Snapshot {
	s := &Snapshot{
		Source:    fmt.Sprintf("test snapshot salt=%d", salt),
		AnnDigest: 0x1234 + uint64(salt),
		Routers:   []uint32{100 + salt, 200 + salt, 0},
	}
	for i := 0; i < 16; i++ {
		s.Ifaces = append(s.Ifaces, Iface{
			Addr:   netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)}),
			Router: uint32(i % 3),
			ConnAS: 300 + salt + uint32(i),
		})
	}
	s.Ifaces = append(s.Ifaces, Iface{
		Addr:   netip.MustParseAddr("2001:db8::1"),
		Router: 1,
		ConnAS: 400 + salt,
	})
	s.Links = []Link{
		{FarAddr: netip.AddrFrom4([4]byte{10, 0, 0, 3}), NearAS: 100 + salt, FarAS: 200 + salt, Label: "M"},
		{FarAddr: netip.AddrFrom4([4]byte{10, 0, 0, 3}), NearAS: 100 + salt, FarAS: 200 + salt, Label: "N"},
		{FarAddr: netip.AddrFrom4([4]byte{10, 0, 0, 7}), NearAS: 200 + salt, FarAS: 100 + salt, Label: "E"},
	}
	s.Prefixes = []Prefix{
		{Prefix: netip.MustParsePrefix("10.0.0.0/8"), Origin: 7018, Kind: PrefixBGP},
		{Prefix: netip.MustParsePrefix("10.0.0.0/8"), Origin: 64500, Kind: PrefixRIR},
		{Prefix: netip.MustParsePrefix("10.1.0.0/16"), Origin: 64501 + salt, Kind: PrefixRIR},
		{Prefix: netip.MustParsePrefix("206.126.236.0/22"), Kind: PrefixIXP},
	}
	return s
}

// writeSnapshot publishes a salted snapshot into dir and returns its
// path and the opened (validated, indexed) form.
func writeSnapshot(t *testing.T, dir string, salt uint32) (string, *Snapshot) {
	t.Helper()
	path := filepath.Join(dir, "serve.snap")
	if err := WriteFile(path, makeSnapshot(salt)); err != nil {
		t.Fatal(err)
	}
	snap, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, snap
}

func TestRoundTrip(t *testing.T) {
	want := makeSnapshot(1)
	var buf bytes.Buffer
	if err := Encode(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Source != want.Source || got.AnnDigest != want.AnnDigest {
		t.Errorf("header round-trip: got (%q, %#x), want (%q, %#x)",
			got.Source, got.AnnDigest, want.Source, want.AnnDigest)
	}
	if len(got.Routers) != len(want.Routers) || len(got.Ifaces) != len(want.Ifaces) ||
		len(got.Links) != len(want.Links) || len(got.Prefixes) != len(want.Prefixes) {
		t.Fatalf("table sizes changed across round trip: %d/%d/%d/%d vs %d/%d/%d/%d",
			len(got.Routers), len(got.Ifaces), len(got.Links), len(got.Prefixes),
			len(want.Routers), len(want.Ifaces), len(want.Links), len(want.Prefixes))
	}
	for i := range want.Ifaces {
		if got.Ifaces[i] != want.Ifaces[i] {
			t.Errorf("iface %d: got %+v, want %+v", i, got.Ifaces[i], want.Ifaces[i])
		}
	}
	if got.Fingerprint() == 0 || got.Fingerprint() != want.Fingerprint() {
		t.Errorf("fingerprint: decoded %#x, encoded %#x", got.Fingerprint(), want.Fingerprint())
	}

	// Determinism: encoding the same tables twice is byte-identical.
	var again bytes.Buffer
	if err := Encode(&again, makeSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two encodings of identical tables differ")
	}
	// And a different salt yields a different fingerprint — the property
	// cross-generation consistency checks rely on.
	var other bytes.Buffer
	if err := Encode(&other, makeSnapshot(2)); err != nil {
		t.Fatal(err)
	}
	o, err := Decode(other.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if o.Fingerprint() == got.Fingerprint() {
		t.Error("different tables produced the same fingerprint")
	}
}

// goldenSnapshot is makeSnapshot(1) in the byte layout the build before
// the shared ckpt.Reader wrote: a snapshot that build published must
// open, and Encode must still write exactly these bytes.
const goldenSnapshot = "424d49545352564501010100003ad06ade8650eec8147465737420736e617073686f742073616c743d31351200000000" +
	"00000365c9010011040a00000100ad02040a00000201ae02040a00000302af02040a00000400b002040a00000501b102" +
	"040a00000602b202040a00000700b302040a00000801b402040a00000902b502040a00000a00b602040a00000b01b702" +
	"040a00000c02b802040a00000d00b902040a00000e01ba02040a00000f02bb02040a00001000bc021020010db8000000" +
	"00000000000000000101910303040a00000365c9014d040a00000365c9014e040a000007c901654504040a00000008ea" +
	"3601040a00000008f4f70302040a01000010f6f7030204ce7eec001600038585c222"

func TestGoldenBytes(t *testing.T) {
	want, err := hex.DecodeString(goldenSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, makeSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Encode no longer writes the recorded bytes:\n got %x\nwant %x", buf.Bytes(), want)
	}
	got, err := Decode(want)
	if err != nil {
		t.Fatalf("Decode refuses the recorded snapshot: %v", err)
	}
	buf.Reset()
	if err := Encode(&buf, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("the recorded snapshot re-encodes differently:\n got %x\nwant %x", buf.Bytes(), want)
	}
}

func TestLookup(t *testing.T) {
	_, snap := writeSnapshot(t, t.TempDir(), 5)

	res, ok := snap.Lookup(netip.MustParseAddr("10.0.0.2"))
	if !ok {
		t.Fatal("10.0.0.2 not found")
	}
	// Interface index 1: router 1, ConnAS 300+5+1.
	if res.Router != 1 || res.RouterAS != 205 || res.ConnAS != 306 {
		t.Errorf("lookup answered %+v, want router=1 routerAS=205 connAS=306", res)
	}
	if _, ok := snap.Lookup(netip.MustParseAddr("10.0.0.99")); ok {
		t.Error("unobserved address found")
	}
	if _, ok := snap.Lookup(netip.MustParseAddr("2001:db8::1")); !ok {
		t.Error("IPv6 interface not found")
	}

	// LookupLink picks the highest-confidence record among duplicates:
	// N over M.
	l, ok := snap.LookupLink(netip.MustParseAddr("10.0.0.3"))
	if !ok || l.Label != "N" {
		t.Errorf("link lookup got (%+v, %v), want the N-labelled record", l, ok)
	}
	if _, ok := snap.LookupLink(netip.MustParseAddr("10.0.0.4")); ok {
		t.Error("non-link address reported as interdomain")
	}

	// Prefix layering: for the identical 10.0.0.0/8, BGP beats RIR.
	p, ok := snap.LookupPrefix(netip.MustParseAddr("10.200.0.1"))
	if !ok || p.Kind != PrefixBGP || p.Origin != 7018 {
		t.Errorf("prefix lookup got (%+v, %v), want the BGP record", p, ok)
	}
	// Longest match still wins across distinct prefixes.
	p, ok = snap.LookupPrefix(netip.MustParseAddr("10.1.2.3"))
	if !ok || p.Prefix.Bits() != 16 {
		t.Errorf("prefix lookup got (%+v, %v), want the /16", p, ok)
	}
	if _, ok := snap.LookupPrefix(netip.MustParseAddr("203.0.113.9")); ok {
		t.Error("uncovered address matched a prefix")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Snapshot)
	}{
		{"unsorted ifaces", func(s *Snapshot) {
			s.Ifaces[0], s.Ifaces[1] = s.Ifaces[1], s.Ifaces[0]
		}},
		{"duplicate iface", func(s *Snapshot) {
			s.Ifaces[1] = s.Ifaces[0]
		}},
		{"router index out of range", func(s *Snapshot) {
			s.Ifaces[0].Router = uint32(len(s.Routers))
		}},
		{"invalid iface addr", func(s *Snapshot) {
			s.Ifaces[0].Addr = netip.Addr{}
		}},
		{"unknown link label", func(s *Snapshot) {
			s.Links[0].Label = "X"
		}},
		{"unsorted links", func(s *Snapshot) {
			s.Links[0], s.Links[2] = s.Links[2], s.Links[0]
		}},
		{"unknown prefix kind", func(s *Snapshot) {
			s.Prefixes[0].Kind = 9
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := makeSnapshot(1)
			tc.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("Validate accepted a corrupt snapshot")
			}
			var ve *ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("error is %T, want *ValidationError: %v", err, err)
			}
		})
	}
}

func TestSelfCheck(t *testing.T) {
	_, snap := writeSnapshot(t, t.TempDir(), 3)
	if err := snap.SelfCheck(); err != nil {
		t.Fatalf("valid snapshot failed self-check: %v", err)
	}
	empty := &Snapshot{}
	if err := empty.SelfCheck(); err == nil {
		t.Error("empty snapshot passed self-check")
	}
	// A snapshot with prefixes but no index must refuse publication.
	unindexed := makeSnapshot(1)
	if err := unindexed.SelfCheck(); err == nil {
		t.Error("unindexed snapshot passed self-check")
	}
}
