package traceroute

import (
	"bytes"
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
