package traceroute

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/netip"
	"strconv"
)

// The keys as JSONLWriter writes them, record keys in their order: the
// bytes json.Encoder wrote for the wire struct (oracle_test.go). The hop
// keys are also the literals the decoder's fast path (decode.go)
// matches. "vp" and "src" are left out when empty, a hop's "rtt" when
// zero.
const (
	keyVP   = `"vp":`
	keySrc  = `"src":`
	keyDst  = `"dst":`
	keyStop = `"stop_reason":`
	keyHops = `"hops":`

	keyAddr = `"addr":`
	keyTTL  = `"probe_ttl":`
	keyICMP = `"icmp_type":`
	keyRTT  = `"rtt":`
)

// JSONLWriter streams traces as one JSON object per line.
type JSONLWriter struct{ bw *bufio.Writer }

// NewJSONLWriter returns a writer streaming to w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{bw: bufio.NewWriterSize(w, 1<<16)}
}

// Write encodes one trace, byte for byte as json.Encoder encodes the
// wire struct. An rtt that is NaN or infinite has no JSON form: Write
// then returns an error and writes nothing.
func (jw *JSONLWriter) Write(t *Trace) error {
	b := append(jw.bw.AvailableBuffer(), '{')
	if t.VP != "" {
		b = append(appendString(append(b, keyVP...), t.VP), ',')
	}
	if t.Src.IsValid() {
		b = append(appendAddr(append(b, keySrc...), t.Src), ',')
	}
	b = appendAddr(append(b, keyDst...), t.Dst)
	b = appendString(append(b, ","+keyStop...), t.Stop.String())
	b = append(b, ","+keyHops+"["...)
	for i, h := range t.Hops {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendAddr(append(b, "{"+keyAddr...), h.Addr)
		b = strconv.AppendUint(append(b, ","+keyTTL...), uint64(h.ProbeTTL), 10)
		b = strconv.AppendUint(append(b, ","+keyICMP...), uint64(h.Reply.ICMPType()), 10)
		if rtt := float64(h.RTTMillis); rtt != 0 {
			if math.IsNaN(rtt) || math.IsInf(rtt, 0) {
				return fmt.Errorf("traceroute: jsonl write: hop %d: rtt %v is not a JSON number", i, h.RTTMillis)
			}
			b = appendFloat32(append(b, ","+keyRTT...), h.RTTMillis)
		}
		b = append(b, '}')
	}
	_, err := jw.bw.Write(append(b, "]}\n"...))
	return err
}

// Flush flushes buffered output.
func (jw *JSONLWriter) Flush() error { return jw.bw.Flush() }

// appendAddr appends a's text as a JSON string. A valid address without
// a zone is digits, hex, dots and colons, which need no escaping.
func appendAddr(b []byte, a netip.Addr) []byte {
	if !a.IsValid() || a.Zone() != "" {
		return appendString(b, a.String())
	}
	return append(a.AppendTo(append(b, '"')), '"')
}

// appendFloat32 appends f the way encoding/json encodes a float32: the
// shortest decimal that reads back as f, in exponent form below 1e-6 and
// from 1e21 on, with the exponent's leading zero dropped.
func appendFloat32(b []byte, f float32) []byte {
	format := byte('f')
	if abs := float32(math.Abs(float64(f))); abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	b = strconv.AppendFloat(b, float64(f), format, -1, 32)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		return append(b[:n-2], b[n-1])
	}
	return b
}

// appendString appends s as json.Encoder writes a string: as it stands
// when every byte is printable ASCII other than the quote, the
// backslash, <, > and & (the VPs of every corpus the repo writes), and
// through json.Marshal, the Encoder's own escaping, when one is not.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !plainByte[c] || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}
