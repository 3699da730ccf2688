package traceroute

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// ReadStats tallies what a JSONL scan consumed versus skipped, feeding
// the pipeline's load.* telemetry counters.
type ReadStats struct {
	// Traces is the number of traces delivered to the callback.
	Traces int
	// SkippedRecords counts records whose "type" was not "trace"
	// (scamper cycle markers and other stream bookkeeping).
	SkippedRecords int
	// DroppedHops counts hops discarded because their ICMP reply type
	// is outside the three classes the heuristics consume.
	DroppedHops int
}

// IsBinary reports whether path names a trace file in the binary form: a
// .bin extension, in any case. Every other trace file is JSON lines.
func IsBinary(path string) bool { return strings.EqualFold(filepath.Ext(path), ".bin") }

// Read streams the traces of r, the contents of the file at path, to fn
// in the form IsBinary(path) says. The binary form skips no record and
// drops no hop, so its ReadStats counts traces only. fn returning an
// error aborts the read with that error.
func Read(path string, r io.Reader, fn func(*Trace) error) (ReadStats, error) {
	if !IsBinary(path) {
		return ReadJSONLStats(r, fn)
	}
	var stats ReadStats
	err := ReadBinary(r, func(t *Trace) error {
		stats.Traces++
		return fn(t)
	})
	return stats, err
}

// ReadJSONLStats streams traces from JSON-lines input, invoking fn for
// each, and returns the skip/drop tallies alongside the scan result. fn
// returning an error aborts the scan with that error.
//
// The reader accepts scamper (sc_warts2json) streams as a superset of
// its own output: records whose "type" is not "trace" are skipped, a
// missing stop_reason is inferred from the final hop, and hops with
// ICMP reply types outside {Time Exceeded, Echo Reply, Destination
// Unreachable} are dropped (bdrmapIT's heuristics only consume those
// three).
func ReadJSONLStats(r io.Reader, fn func(*Trace) error) (ReadStats, error) {
	return ScanJSONL(r, fn, nil)
}

// maxLineBytes caps one JSONL record, terminator included.
const maxLineBytes = 16 << 20

// ScanJSONL is the line-level entry point under every JSONL consumer:
// it streams r through a bounded buffer, splits it into lines, decodes
// each with the single-pass decoder of decode.go and hands the traces
// to fn. fn returning an error aborts the scan with that error.
//
// onBad is the error policy for a line that does not decode. Nil aborts
// the scan with the line's error. Otherwise onBad receives that error
// (line number included) and either returns nil, which skips the line,
// or an error, which aborts the scan with it. A scan with an error
// budget also forgives stray whitespace the way batch intake always
// has: lines are trimmed of Unicode space first and whitespace-only
// lines are blank, and nothing a rejected line contained reaches the
// tallies.
//
// A line of maxLineBytes or more and a read error (reported after the
// bytes before it were decoded) abort the scan under either policy.
func ScanJSONL(r io.Reader, fn func(*Trace) error, onBad func(error) error) (ReadStats, error) {
	var (
		stats      ReadStats
		d          = decoder{vps: make(interner)}
		buf        = make([]byte, 64<<10)
		start, end int   // buf[start:end] is read but not yet split
		searched   int   // buf[start:searched] holds no newline
		rerr       error // sticky result of the last Read; io.EOF at the end
		idle       int   // consecutive (0, nil) reads
		lineno     int
	)
	for {
		var line []byte
		if i := bytes.IndexByte(buf[searched:end], '\n'); i >= 0 {
			line = buf[start : searched+i]
			start = searched + i + 1
			searched = start
		} else if rerr != nil {
			if start == end {
				break
			}
			line = buf[start:end] // unterminated final line
			start, searched = end, end
		} else {
			if end-start >= maxLineBytes {
				return stats, fmt.Errorf("traceroute: jsonl read: line %d is longer than %d bytes", lineno+1, maxLineBytes)
			}
			searched = end
			if start > 0 {
				end = copy(buf, buf[start:end])
				start, searched = 0, end
			} else if end == len(buf) {
				grown := make([]byte, min(2*len(buf), maxLineBytes))
				copy(grown, buf)
				buf = grown
			}
			var n int
			n, rerr = r.Read(buf[end:])
			end += n
			if n > 0 || rerr != nil {
				idle = 0
			} else if idle++; idle == 100 {
				rerr = io.ErrNoProgress
			}
			continue
		}
		lineno++
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if onBad != nil {
			line = bytes.TrimSpace(line)
		}
		if len(line) == 0 {
			continue
		}
		dropped := stats.DroppedHops
		t, err := d.decode(line, &stats)
		if err != nil {
			err = fmt.Errorf("traceroute: jsonl line %d: %w", lineno, err)
			if onBad == nil {
				return stats, err
			}
			stats.DroppedHops = dropped
			if err := onBad(err); err != nil {
				return stats, err
			}
			continue
		}
		if t == nil {
			stats.SkippedRecords++ // scamper cycle-start / cycle-stop records
			continue
		}
		stats.Traces++
		if err := fn(t); err != nil {
			return stats, err
		}
	}
	if rerr != io.EOF {
		return stats, fmt.Errorf("traceroute: jsonl read: %w", rerr)
	}
	return stats, nil
}
