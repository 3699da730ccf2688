package traceroute

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
)

// The reader this package shipped before the single-pass decoder:
// bufio.Scanner, json.Unmarshal into the wire struct, then toTrace. It
// is kept verbatim as the oracle that defines the decoder's accept set
// (FuzzJSONLDifferential); nothing outside tests may call it.

func readJSONLOracle(r io.Reader, fn func(*Trace) error) (ReadStats, error) {
	var stats ReadStats
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var wire jsonTrace
		if err := json.Unmarshal(line, &wire); err != nil {
			return stats, fmt.Errorf("traceroute: jsonl line %d: %w", lineno, err)
		}
		if wire.Type != "" && wire.Type != "trace" {
			stats.SkippedRecords++
			continue // scamper cycle-start / cycle-stop records
		}
		t, err := wire.toTrace(&stats)
		if err != nil {
			return stats, fmt.Errorf("traceroute: jsonl line %d: %w", lineno, err)
		}
		stats.Traces++
		if err := fn(t); err != nil {
			return stats, err
		}
	}
	if err := sc.Err(); err != nil {
		return stats, fmt.Errorf("traceroute: jsonl read: %w", err)
	}
	return stats, nil
}

func (wire jsonTrace) toTrace(stats *ReadStats) (*Trace, error) {
	dst, err := netip.ParseAddr(wire.Dst)
	if err != nil {
		return nil, fmt.Errorf("dst: %w", err)
	}
	t := &Trace{VP: wire.VP, Dst: dst}
	if wire.Src != "" {
		src, err := netip.ParseAddr(wire.Src)
		if err != nil {
			return nil, fmt.Errorf("src: %w", err)
		}
		t.Src = src
	}
	for i, h := range wire.Hops {
		rt, err := ReplyTypeFromICMP(h.ICMPType)
		if err != nil {
			stats.DroppedHops++
			continue // a reply class the heuristics do not consume
		}
		addr, err := netip.ParseAddr(h.Addr)
		if err != nil {
			return nil, fmt.Errorf("hop %d addr: %w", i, err)
		}
		t.Hops = append(t.Hops, Hop{Addr: addr, ProbeTTL: h.ProbeTTL, Reply: rt, RTTMillis: h.RTT})
	}
	if wire.Stop != "" {
		stop, err := ParseStopReason(wire.Stop)
		if err != nil {
			return nil, err
		}
		t.Stop = stop
	} else if t.ReachedDst() {
		t.Stop = StopCompleted
	} else {
		t.Stop = StopGapLimit
	}
	return t, nil
}
