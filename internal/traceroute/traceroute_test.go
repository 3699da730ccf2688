package traceroute

import (
	"bytes"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

func sampleTrace() *Trace {
	return &Trace{
		VP:  "vp-1",
		Src: netip.MustParseAddr("192.0.2.1"),
		Dst: netip.MustParseAddr("203.0.113.9"),
		Hops: []Hop{
			{Addr: netip.MustParseAddr("10.0.0.1"), ProbeTTL: 1, Reply: TimeExceeded, RTTMillis: 0.5},
			{Addr: netip.MustParseAddr("198.51.100.1"), ProbeTTL: 2, Reply: TimeExceeded, RTTMillis: 3.25},
			{Addr: netip.MustParseAddr("203.0.113.9"), ProbeTTL: 4, Reply: EchoReply, RTTMillis: 10},
		},
		Stop: StopCompleted,
	}
}

func TestValidate(t *testing.T) {
	if err := sampleTrace().Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	bad := sampleTrace()
	bad.Hops[1].ProbeTTL = 1 // not ascending
	if err := bad.Validate(); err == nil {
		t.Error("non-ascending TTLs accepted")
	}
	bad2 := sampleTrace()
	bad2.Dst = netip.Addr{}
	if err := bad2.Validate(); err == nil {
		t.Error("invalid dst accepted")
	}
	bad3 := sampleTrace()
	bad3.Hops[0].Addr = netip.Addr{}
	if err := bad3.Validate(); err == nil {
		t.Error("invalid hop addr accepted")
	}
}

func TestLastHopReached(t *testing.T) {
	tr := sampleTrace()
	if h := tr.LastHop(); h == nil || h.Addr != tr.Dst {
		t.Errorf("LastHop = %v", h)
	}
	if !tr.ReachedDst() {
		t.Error("ReachedDst should be true")
	}
	empty := &Trace{Dst: tr.Dst}
	if empty.LastHop() != nil || empty.ReachedDst() {
		t.Error("empty trace misreports")
	}
}

func TestReplyTypeMapping(t *testing.T) {
	for _, rt := range []ReplyType{TimeExceeded, EchoReply, DestUnreachable} {
		back, err := ReplyTypeFromICMP(rt.ICMPType())
		if err != nil || back != rt {
			t.Errorf("%v round trip: %v %v", rt, back, err)
		}
	}
	if _, err := ReplyTypeFromICMP(42); err == nil {
		t.Error("unknown ICMP type accepted")
	}
}

func TestStopReasonMapping(t *testing.T) {
	for _, s := range []StopReason{StopCompleted, StopGapLimit, StopUnreach, StopLoop} {
		back, err := ParseStopReason(s.String())
		if err != nil || back != s {
			t.Errorf("%v round trip: %v %v", s, back, err)
		}
	}
	if _, err := ParseStopReason("NOPE"); err == nil {
		t.Error("unknown stop reason accepted")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	orig := sampleTrace()
	if err := w.Write(orig); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []*Trace
	if _, err := ReadJSONLStats(&buf, func(tr *Trace) error { got = append(got, tr); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], orig) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got[0], orig)
	}
}

func TestJSONLErrors(t *testing.T) {
	cases := []string{
		`{"dst":"bogus","stop_reason":"COMPLETED","hops":[]}`,
		`{"dst":"1.2.3.4","stop_reason":"NOPE","hops":[]}`,
		`{"dst":"1.2.3.4","stop_reason":"COMPLETED","hops":[{"addr":"x","probe_ttl":1,"icmp_type":11}]}`,
		`{not json}`,
	}
	for _, c := range cases {
		_, err := ReadJSONLStats(strings.NewReader(c), func(*Trace) error { return nil })
		if err == nil {
			t.Errorf("expected error for %s", c)
		}
	}
}

// TestJSONLScamperCompatibility: the reader accepts sc_warts2json
// streams — non-trace records skipped, unsupported ICMP reply classes
// dropped, stop reason inferred when absent.
func TestJSONLScamperCompatibility(t *testing.T) {
	in := strings.Join([]string{
		`{"type":"cycle-start","list_name":"default","id":1}`,
		`{"type":"trace","method":"icmp-paris","src":"192.0.2.1","dst":"203.0.113.9",` +
			`"hops":[{"addr":"198.51.100.1","probe_ttl":1,"icmp_type":11,"icmp_code":0,"rtt":1.5},` +
			`{"addr":"198.51.100.2","probe_ttl":2,"icmp_type":12},` + // param problem: dropped
			`{"addr":"203.0.113.9","probe_ttl":3,"icmp_type":0,"rtt":9.1}]}`,
		`{"type":"trace","src":"192.0.2.1","dst":"203.0.113.10",` +
			`"hops":[{"addr":"198.51.100.1","probe_ttl":1,"icmp_type":11}]}`,
		`{"type":"cycle-stop","id":1}`,
	}, "\n")
	var got []*Trace
	if _, err := ReadJSONLStats(strings.NewReader(in), func(tr *Trace) error {
		got = append(got, tr)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d traces, want 2", len(got))
	}
	if len(got[0].Hops) != 2 {
		t.Errorf("unsupported hop not dropped: %d hops", len(got[0].Hops))
	}
	if got[0].Stop != StopCompleted {
		t.Errorf("stop inferred as %v, want COMPLETED", got[0].Stop)
	}
	if got[1].Stop != StopGapLimit {
		t.Errorf("stop inferred as %v, want GAPLIMIT", got[1].Stop)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	traces := []*Trace{sampleTrace(), {Dst: netip.MustParseAddr("2001:db8::1"), Stop: StopGapLimit}}
	for _, tr := range traces {
		if err := w.Write(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []*Trace
	if err := ReadBinary(&buf, func(tr *Trace) error { got = append(got, tr); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d traces", len(got))
	}
	if !reflect.DeepEqual(got[0], traces[0]) {
		t.Errorf("binary round trip mismatch:\n got %+v\nwant %+v", got[0], traces[0])
	}
	if got[1].Dst != traces[1].Dst || got[1].Stop != StopGapLimit || len(got[1].Hops) != 0 {
		t.Errorf("second trace mismatch: %+v", got[1])
	}
}

func TestBinaryEmptyAndErrors(t *testing.T) {
	if err := ReadBinary(bytes.NewReader(nil), func(*Trace) error { return nil }); err != nil {
		t.Errorf("empty stream should be fine: %v", err)
	}
	if err := ReadBinary(strings.NewReader("XXXX\x01"), func(*Trace) error { return nil }); err == nil {
		t.Error("bad magic accepted")
	}
	if err := ReadBinary(strings.NewReader("BDRT\x09"), func(*Trace) error { return nil }); err == nil {
		t.Error("bad version accepted")
	}
	// Truncated record.
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	if err := w.Write(sampleTrace()); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	trunc := buf.Bytes()[:buf.Len()-3]
	if err := ReadBinary(bytes.NewReader(trunc), func(*Trace) error { return nil }); err == nil {
		t.Error("truncated stream accepted")
	}
	// Values the model does not define are refused where they stand, as
	// the JSONL reader refuses or drops them, not passed on as enums.
	for _, c := range []struct {
		name   string
		mutate func(*Trace)
		want   string
	}{
		{"reply type 9", func(tr *Trace) { tr.Hops[1].Reply = 9 }, "record 2: hop 1: undefined reply type 9"},
		{"stop reason 7", func(tr *Trace) { tr.Stop = 7 }, "record 2: undefined stop reason 7"},
		{"no destination", func(tr *Trace) { tr.Dst = netip.Addr{} }, "record 2: no destination address"},
		{"hop without address", func(tr *Trace) { tr.Hops[2].Addr = netip.Addr{} }, "record 2: hop 2: no address"},
	} {
		var buf bytes.Buffer
		w := NewBinaryWriter(&buf)
		bad := sampleTrace()
		c.mutate(bad)
		w.Write(sampleTrace())
		w.Write(bad)
		w.Flush()
		delivered := 0
		err := ReadBinary(&buf, func(*Trace) error { delivered++; return nil })
		if err == nil || !strings.Contains(err.Error(), c.want) || delivered != 1 {
			t.Errorf("%s: delivered %d, err %v; want 1 and %q", c.name, delivered, err, c.want)
		}
	}
}

// Property test: random traces survive both codecs byte-exactly.
func TestCodecsRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randAddr := func() netip.Addr {
		if rng.Intn(4) == 0 {
			var b [16]byte
			rng.Read(b[:])
			b[0] = 0x20
			return netip.AddrFrom16(b)
		}
		var b [4]byte
		rng.Read(b[:])
		return netip.AddrFrom4(b)
	}
	var traces []*Trace
	for i := 0; i < 200; i++ {
		tr := &Trace{
			VP:   "vp",
			Dst:  randAddr(),
			Stop: StopReason(rng.Intn(4)),
		}
		ttl := uint8(0)
		for h := 0; h < rng.Intn(12); h++ {
			ttl += uint8(1 + rng.Intn(3))
			tr.Hops = append(tr.Hops, Hop{
				Addr:      randAddr(),
				ProbeTTL:  ttl,
				Reply:     ReplyType(rng.Intn(3)),
				RTTMillis: float32(rng.Intn(1000)) / 10,
			})
		}
		traces = append(traces, tr)
	}
	var jbuf, bbuf bytes.Buffer
	jw := NewJSONLWriter(&jbuf)
	bw := NewBinaryWriter(&bbuf)
	for _, tr := range traces {
		if err := jw.Write(tr); err != nil {
			t.Fatal(err)
		}
		if err := bw.Write(tr); err != nil {
			t.Fatal(err)
		}
	}
	jw.Flush()
	bw.Flush()
	check := func(name string, got []*Trace) {
		if len(got) != len(traces) {
			t.Fatalf("%s: %d traces, want %d", name, len(got), len(traces))
		}
		for i := range traces {
			if !reflect.DeepEqual(got[i], traces[i]) {
				t.Fatalf("%s: trace %d mismatch\n got %+v\nwant %+v", name, i, got[i], traces[i])
			}
		}
	}
	// Read picks the decoder from the path, the extension in any case.
	for path, buf := range map[string]*bytes.Buffer{"traces.jsonl": &jbuf, "traces.BIN": &bbuf} {
		var got []*Trace
		stats, err := Read(path, buf, func(tr *Trace) error { got = append(got, tr); return nil })
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if stats.Traces != len(traces) {
			t.Errorf("%s: ReadStats counts %d traces, want %d", path, stats.Traces, len(traces))
		}
		check(path, got)
	}
}

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }
