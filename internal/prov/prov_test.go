package prov

import (
	"bytes"
	"encoding/hex"
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ckpt"
)

func sampleArtifact() *Artifact {
	return &Artifact{
		Iterations:  7,
		Converged:   true,
		CycleLength: 1,
		Routers: []RouterRec{
			{Annotation: 100, LastHop: false, Record: Record{
				Rule: RuleElection, Tie: TieDestFull | TieSmallestCone,
				Winner: 100, WinnerVotes: 5, RunnerUp: 200, RunnerUpVotes: 3, Iter: 2,
			}},
			{Annotation: 300, LastHop: true, Record: Record{
				Rule: RuleLHSingleOrigin, Winner: 300,
			}},
			{Annotation: 0, Record: Record{Rule: RuleKeepPrevious}},
		},
		Ifaces: []Iface{
			{Addr: netip.MustParseAddr("1.0.0.1"), Origin: 100, Annotation: 100, Router: 0, Rule: IfaceVote},
			{Addr: netip.MustParseAddr("2.0.0.1"), Origin: 200, Annotation: 200, Router: 1, Rule: IfaceOffPath},
			{Addr: netip.MustParseAddr("9.9.9.1"), Origin: 0, Annotation: 0, Router: 2, Rule: IfaceStatic},
		},
	}
}

func encode(t *testing.T, a *Artifact) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, a); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	for name, a := range map[string]*Artifact{
		"sample": sampleArtifact(),
		// Iterations and CycleLength are data, not element counts: they
		// may exceed the payload's length in bytes.
		"more iterations than payload bytes": {
			Iterations: 50, CycleLength: 48,
			Routers: []RouterRec{{Record: Record{Rule: RuleKeepPrevious}}},
		},
	} {
		t.Run(name, func(t *testing.T) {
			raw := encode(t, a)
			got, err := Decode(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !reflect.DeepEqual(got, a) {
				t.Errorf("decoded artifact mismatch:\n got %+v\nwant %+v", got, a)
			}
			// Re-encoding the decoded artifact must reproduce the bytes: the
			// byte-identity gates (worker counts, resume points) rely on the
			// encoding being a pure function of the artifact.
			if !bytes.Equal(raw, encode(t, got)) {
				t.Fatal("re-encoded artifact differs from original bytes")
			}
		})
	}
}

// The byte layout the build before the shared ckpt.Reader wrote, written
// out: goldenArtifact is sampleArtifact() as an artifact file. What that
// build left on disk must load, and Encode must still write exactly these
// bytes.
const goldenArtifact = "424d495450524f5601610000000701010364000d0a6405c8010302ac02010200ac020000000000000b00000000000003" +
	"00000000000000000000ffff010000016464000300000000000000000000ffff02000001c801c8010102000000000000" +
	"00000000ffff0909090100000201eb937f8c"

func TestGoldenBytes(t *testing.T) {
	want, err := hex.DecodeString(goldenArtifact)
	if err != nil {
		t.Fatal(err)
	}
	if got := encode(t, sampleArtifact()); !bytes.Equal(got, want) {
		t.Errorf("Encode no longer writes the recorded bytes:\n got %x\nwant %x", got, want)
	}
	a, err := Decode(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("Decode refuses the recorded artifact: %v", err)
	}
	if !reflect.DeepEqual(a, sampleArtifact()) {
		t.Errorf("recorded artifact decodes to\n %+v\nwant %+v", a, sampleArtifact())
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	raw := encode(t, sampleArtifact())
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantSub string
	}{
		{"short", func(b []byte) []byte { return b[:5] }, "too short"},
		{"magic", func(b []byte) []byte { b[0] = 'X'; return b }, "bad magic"},
		{"version", func(b []byte) []byte { b[8] = Version + 1; return b }, "unsupported format version"},
		{"length", func(b []byte) []byte { return append(b, 0) }, "length mismatch"},
		{"crc", func(b []byte) []byte { b[len(b)-6] ^= 0xff; return b }, "checksum mismatch"},
		{"truncated", func(b []byte) []byte { return b[:len(b)-8] }, "length mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), raw...))
			_, err := Decode(bytes.NewReader(b))
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("want *FormatError, got %v", err)
			}
			if !strings.Contains(fe.Reason, tc.wantSub) {
				t.Errorf("reason %q does not mention %q", fe.Reason, tc.wantSub)
			}
		})
	}
}

func TestDecodeRejectsBadRuleAndRouterIndex(t *testing.T) {
	a := sampleArtifact()
	a.Routers[0].Rule = NumRules // out of range
	var buf bytes.Buffer
	if err := Encode(&buf, a); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(&buf); err == nil || !strings.Contains(err.Error(), "unknown rule") {
		t.Errorf("bad rule not rejected: %v", err)
	}

	a = sampleArtifact()
	a.Ifaces[0].Router = 99 // out of range
	buf.Reset()
	if err := Encode(&buf, a); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(&buf); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("bad router index not rejected: %v", err)
	}
}

// TestDecodeRejectsNonCanonicalPayload: a payload that says what Encode
// would say, in bytes Encode would not choose, is refused — otherwise
// two different files could decode to one artifact.
func TestDecodeRejectsNonCanonicalPayload(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
		wantSub string
	}{
		{"unknown flag bit", []byte{0, 4, 0, 0, 0}, "unknown flag bits"},
		{"overlong varint", []byte{0x80, 0, 0, 0, 0, 0}, "non-minimal varint"},
		{"last-hop byte 2", []byte{0, 0, 0, 1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0}, "last-hop flag"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var framed bytes.Buffer
			if err := ckpt.WriteFrame(&framed, magic, Version, tc.payload); err != nil {
				t.Fatal(err)
			}
			_, err := Decode(&framed)
			var fe *FormatError
			if !errors.As(err, &fe) || !strings.Contains(fe.Reason, tc.wantSub) {
				t.Fatalf("want *FormatError mentioning %q, got %v", tc.wantSub, err)
			}
		})
	}
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.prov")
	a := sampleArtifact()
	if err := WriteFile(path, a); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(encode(t, a), encode(t, got)) {
		t.Error("read artifact differs from written one")
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.prov")); err == nil {
		t.Error("missing artifact not reported")
	}
	// No temp files left behind by the atomic write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("unexpected files in artifact dir: %v", entries)
	}
}

func TestLookupAndRouterIfaces(t *testing.T) {
	a := sampleArtifact()
	f, ok := a.Lookup(netip.MustParseAddr("2.0.0.1"))
	if !ok || f.Router != 1 || f.Rule != IfaceOffPath {
		t.Errorf("Lookup(2.0.0.1) = %+v, %v", f, ok)
	}
	if _, ok := a.Lookup(netip.MustParseAddr("8.8.8.8")); ok {
		t.Error("Lookup of unknown address succeeded")
	}
	ifs := a.RouterIfaces(0)
	if len(ifs) != 1 || ifs[0].Addr != netip.MustParseAddr("1.0.0.1") {
		t.Errorf("RouterIfaces(0) = %+v", ifs)
	}
	if got := a.RouterIfaces(99); got != nil {
		t.Errorf("RouterIfaces(99) = %+v", got)
	}
}

func TestNilSafety(t *testing.T) {
	var a *Artifact
	if _, ok := a.Lookup(netip.MustParseAddr("1.0.0.1")); ok {
		t.Error("nil Lookup succeeded")
	}
	if a.RouterIfaces(0) != nil {
		t.Error("nil RouterIfaces returned entries")
	}
	if a.RuleCounts() != [NumRules]int{} {
		t.Error("nil RuleCounts non-zero")
	}
	var d *Drift
	if !d.Empty() {
		t.Error("nil Drift not empty")
	}
	var sb strings.Builder
	if err := d.Write(&sb); err != nil {
		t.Errorf("nil Drift.Write: %v", err)
	}
	var fe *FormatError
	if fe.Error() == "" {
		t.Error("nil FormatError message empty")
	}
	if err := Encode(&sb2{}, nil); err == nil {
		t.Error("Encode(nil) succeeded")
	}
}

type sb2 struct{}

func (*sb2) Write(p []byte) (int, error) { return len(p), nil }

func TestRuleStrings(t *testing.T) {
	seen := map[string]bool{}
	for r := RuleNone; r < NumRules; r++ {
		s := r.String()
		if s == "" || seen[s] {
			t.Errorf("rule %d has empty or duplicate name %q", r, s)
		}
		seen[s] = true
		if r.Describe() == "" {
			t.Errorf("rule %s has no description", s)
		}
	}
	if !RuleLHBridge.LastHop() || RuleElection.LastHop() || RuleNone.LastHop() {
		t.Error("LastHop classification wrong")
	}
	if NumRules.String() != "rule-15" {
		t.Errorf("out-of-range rule name: %q", NumRules.String())
	}
	for r := IfaceNone; r < NumIfaceRules; r++ {
		if r.String() == "" || r.Describe() == "" {
			t.Errorf("iface rule %d missing name or description", r)
		}
	}
	if got := (TieSingle | TieSmallestCone).String(); got != "single-candidate+smallest-cone" {
		t.Errorf("tie string: %q", got)
	}
	if Tie(0).String() != "none" {
		t.Errorf("empty tie string: %q", Tie(0).String())
	}
}

func TestDiff(t *testing.T) {
	old := sampleArtifact()
	// Self-diff is the CI zero-drift gate.
	if d := Diff(old, old); !d.Empty() {
		t.Fatalf("self-diff not empty: %+v", d)
	}

	cur := sampleArtifact()
	cur.Routers[0].Annotation = 200
	cur.Routers[0].Rule = RuleHiddenAS
	cur.Routers[0].Iter = 4
	cur.Ifaces[0].Annotation = 200
	// An address only the new run has.
	cur.Ifaces = append(cur.Ifaces, Iface{Addr: netip.MustParseAddr("10.0.0.1"), Origin: 100, Annotation: 100, Router: 0, Rule: IfaceVote})

	d := Diff(old, cur)
	if d.Empty() {
		t.Fatal("drift not detected")
	}
	if d.RoutersMatched != 3 || d.IfacesMatched != 3 || d.OnlyNew != 1 || d.OnlyOld != 0 {
		t.Errorf("match counts: %+v", d)
	}
	if len(d.RouterFlips) != 1 {
		t.Fatalf("router flips: %+v", d.RouterFlips)
	}
	f := d.RouterFlips[0]
	if f.OldAS != 100 || f.NewAS != 200 || f.OldRule != RuleElection || f.NewRule != RuleHiddenAS || f.NewIter != 4 {
		t.Errorf("flip: %+v", f)
	}
	if len(d.IfaceFlips) != 1 || d.IfaceFlips[0].Addr != netip.MustParseAddr("1.0.0.1") {
		t.Errorf("iface flips: %+v", d.IfaceFlips)
	}

	var sb strings.Builder
	if err := d.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"election -> hidden-as: 1 routers", "AS100 -> AS200", "1 only in new", "interface flips"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	var sb3 strings.Builder
	if err := Diff(old, old).Write(&sb3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb3.String(), "zero drift") {
		t.Errorf("self-diff report: %q", sb3.String())
	}
}
