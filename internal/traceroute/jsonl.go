package traceroute

import (
	"bufio"
	"encoding/json"
	"io"
)

// jsonHop is the wire form of a hop in the JSONL codec, mirroring the
// fields scamper's JSON output uses for the same information.
type jsonHop struct {
	Addr     string  `json:"addr"`
	ProbeTTL uint8   `json:"probe_ttl"`
	ICMPType uint8   `json:"icmp_type"`
	RTT      float32 `json:"rtt,omitempty"`
}

// jsonTrace is the wire form of a trace. The Type and Method fields
// exist for scamper compatibility: sc_warts2json streams carry a
// "type" discriminator ("trace", "cycle-start", …) and a probing
// method; records that are not traces are skipped.
type jsonTrace struct {
	Type   string    `json:"type,omitempty"`
	Method string    `json:"method,omitempty"`
	VP     string    `json:"vp,omitempty"`
	Src    string    `json:"src,omitempty"`
	Dst    string    `json:"dst"`
	Stop   string    `json:"stop_reason"`
	Hops   []jsonHop `json:"hops"`
}

// JSONLWriter streams traces as one JSON object per line.
type JSONLWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewJSONLWriter returns a writer streaming to w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &JSONLWriter{bw: bw, enc: json.NewEncoder(bw)}
}

// Write encodes one trace.
func (jw *JSONLWriter) Write(t *Trace) error {
	wire := jsonTrace{
		VP:   t.VP,
		Dst:  t.Dst.String(),
		Stop: t.Stop.String(),
		Hops: make([]jsonHop, len(t.Hops)),
	}
	if t.Src.IsValid() {
		wire.Src = t.Src.String()
	}
	for i, h := range t.Hops {
		wire.Hops[i] = jsonHop{
			Addr:     h.Addr.String(),
			ProbeTTL: h.ProbeTTL,
			ICMPType: h.Reply.ICMPType(),
			RTT:      h.RTTMillis,
		}
	}
	return jw.enc.Encode(wire)
}

// Flush flushes buffered output.
func (jw *JSONLWriter) Flush() error { return jw.bw.Flush() }
