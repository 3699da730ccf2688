package traceroute

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/netip"
	"strings"
	"testing"
)

// FuzzReadJSONL asserts the JSONL/scamper reader never panics and that
// accepted traces are structurally valid.
func FuzzReadJSONL(f *testing.F) {
	f.Add(`{"dst":"1.2.3.4","stop_reason":"COMPLETED","hops":[{"addr":"1.1.1.1","probe_ttl":1,"icmp_type":11}]}`)
	f.Add(`{"type":"cycle-start"}`)
	f.Add(`{"type":"trace","dst":"203.0.113.9","hops":[{"addr":"198.51.100.1","probe_ttl":1,"icmp_type":12}]}`)
	f.Add(`{"dst":"2001:db8::1","stop_reason":"GAPLIMIT","hops":[]}`)
	f.Fuzz(func(t *testing.T, in string) {
		_, _ = ReadJSONLStats(strings.NewReader(in), func(tr *Trace) error {
			if !tr.Dst.IsValid() {
				t.Fatal("accepted trace with invalid dst")
			}
			for _, h := range tr.Hops {
				if !h.Addr.IsValid() {
					t.Fatal("accepted hop with invalid addr")
				}
			}
			return nil
		})
	})
}

// FuzzReadBinary asserts the binary reader never panics on corrupted
// streams and that what it accepts is what the JSONL reader would have
// delivered: defined reply types and stop reasons, valid addresses.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	w.Write(&Trace{VP: "vp", Dst: mustAddr("1.2.3.4"), Hops: []Hop{
		{Addr: mustAddr("9.9.9.9"), ProbeTTL: 1, Reply: TimeExceeded},
	}})
	w.Flush()
	f.Add(buf.Bytes())
	f.Add([]byte("BDRT\x01"))
	f.Add([]byte("XXXX\x01"))
	undefinedReply := bytes.Clone(buf.Bytes())
	undefinedReply[len(undefinedReply)-5] = 9
	f.Add(undefinedReply)
	f.Fuzz(func(t *testing.T, in []byte) {
		_ = ReadBinary(bytes.NewReader(in), func(tr *Trace) error {
			if !tr.Dst.IsValid() {
				t.Fatal("accepted trace with invalid dst")
			}
			if !tr.Stop.defined() {
				t.Fatalf("accepted undefined stop reason %d", tr.Stop)
			}
			for _, h := range tr.Hops {
				if !h.Addr.IsValid() {
					t.Fatal("accepted hop with invalid addr")
				}
				if !h.Reply.defined() {
					t.Fatalf("accepted undefined reply type %d", h.Reply)
				}
			}
			return nil
		})
	})
}

// FuzzWriteJSONL holds JSONLWriter to the json.Encoder writer it
// replaced (writeJSONLOracle), byte for byte: the same line for a trace,
// or an error from both and nothing written. The fuzzer picks the VP,
// a zone, the stop reason, and per hop of in an address form, a TTL, a
// reply type and the rtt's bits; the first hop's address is also src
// and dst.
func FuzzWriteJSONL(f *testing.F) {
	hop := func(form, ttl, reply byte, rtt float32) []byte {
		return binary.LittleEndian.AppendUint32([]byte{form, 192, 0, 2, ttl, ttl, reply}, math.Float32bits(rtt))
	}
	f.Add("vp-1", "", uint8(1), hop(0, 1, 0, 1.2345678))
	f.Add("a<b>&c\"d\\e  \x01\x7f", "eth0", uint8(0), append(hop(2, 9, 1, 1e-6), hop(1, 255, 2, 1e21)...))
	f.Add("bad-\xff\xfe-utf8", "a\"<\xff", uint8(9), append(hop(2, 0, 3, 9.999999e-7), hop(3, 3, 2, 9.999999e20)...))
	f.Add("", "", uint8(3), append(hop(0, 1, 0, float32(math.Copysign(0, -1))), hop(0, 2, 0, 1e-45)...))
	f.Add("vp", "", uint8(2), hop(0, 1, 0, float32(math.NaN())))
	f.Add("vp", "", uint8(2), hop(0, 1, 0, float32(math.Inf(-1))))
	f.Add("vp", "", uint8(2), hop(0, 1, 0, 3.4028235e38))
	f.Fuzz(func(t *testing.T, vp, zone string, stop uint8, raw []byte) {
		addr := func(b []byte) netip.Addr {
			a := netip.AddrFrom4([4]byte(b[1:5]))
			switch b[0] % 4 {
			case 1:
				return netip.AddrFrom16(a.As16())
			case 2:
				return netip.AddrFrom16([16]byte{0xfe, 0x80, 15: b[4]}).WithZone(zone)
			case 3:
				return netip.Addr{}
			}
			return a
		}
		tr := &Trace{VP: vp, Stop: StopReason(stop)}
		for ; len(raw) >= 11; raw = raw[11:] {
			if tr.Hops == nil {
				tr.Src, tr.Dst = addr(raw), addr(raw[1:])
			}
			tr.Hops = append(tr.Hops, Hop{
				Addr:      addr(raw),
				ProbeTTL:  raw[5],
				Reply:     ReplyType(raw[6] % 4),
				RTTMillis: math.Float32frombits(binary.LittleEndian.Uint32(raw[7:])),
			})
		}
		var got, want bytes.Buffer
		jw := NewJSONLWriter(&got)
		err := jw.Write(tr)
		werr := writeJSONLOracle(json.NewEncoder(&want), tr)
		if ferr := jw.Flush(); ferr != nil {
			t.Fatal(ferr)
		}
		if (err == nil) != (werr == nil) {
			t.Fatalf("writer: %v; json.Encoder: %v", err, werr)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("writer and json.Encoder differ:\n got %q\nwant %q", got.Bytes(), want.Bytes())
		}
	})
}
