// Package rir parses RIR extended allocation and assignment reports
// ("delegated-extended" files). bdrmapIT uses them as a fallback IP→AS
// source for prefixes invisible in BGP (paper §4.1): IPv4/IPv6 records
// are matched to AS numbers through the shared opaque-id column.
//
// Record format (pipe separated):
//
//	registry|cc|type|start|value|date|status|opaque-id
//
// where type ∈ {asn, ipv4, ipv6}; for ipv4 the value is an address
// count (not necessarily a power of two), for ipv6 a prefix length, and
// for asn a count of consecutive AS numbers. Version and summary lines
// are skipped.
package rir

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"

	"repro/internal/asn"
	"repro/internal/iptrie"
	"repro/internal/netutil"
)

// Record is one parsed delegation line.
type Record struct {
	Registry string
	CC       string
	Type     string // "asn", "ipv4", "ipv6"
	Start    string
	Value    uint64
	Date     string
	Status   string
	OpaqueID string
}

// Delegations indexes RIR-delegated prefixes by longest-prefix match.
type Delegations struct {
	trie       *iptrie.Trie[asn.ASN]
	numRecords int
}

// New returns an empty delegation index.
func New() *Delegations {
	return &Delegations{trie: iptrie.New[asn.ASN]()}
}

// NumPrefixes returns the number of indexed prefixes.
func (d *Delegations) NumPrefixes() int { return d.trie.Len() }

// NumRecords returns the number of address records consumed.
func (d *Delegations) NumRecords() int { return d.numRecords }

// Origin returns the AS a delegated prefix containing addr maps to.
func (d *Delegations) Origin(addr netip.Addr) (asn.ASN, netip.Prefix, bool) {
	a, p, ok := d.trie.Lookup(addr)
	if !ok {
		return asn.None, netip.Prefix{}, false
	}
	return a, p, true
}

// Walk visits every delegated prefix and its AS.
func (d *Delegations) Walk(f func(p netip.Prefix, a asn.ASN) bool) {
	d.trie.Walk(f)
}

// AddPrefix directly indexes a prefix→AS delegation. The simulator and
// tests use it to construct delegations without round-tripping the file
// format.
func (d *Delegations) AddPrefix(p netip.Prefix, a asn.ASN) {
	d.trie.Insert(p, a)
	d.numRecords++
}

// ParseRecords reads raw records from an extended delegation file,
// skipping the version header, summary lines, comments, and blanks.
func ParseRecords(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Record
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var f [8]string
		n := splitFields(line, &f)
		// Version header: "2|arin|20180101|...", second field is registry
		// but first is a bare number. Only a leading digit or sign can
		// make one, so no other line pays for a failed Atoi.
		if c := line[0]; c >= '0' && c <= '9' || c == '+' || c == '-' {
			if _, err := strconv.Atoi(f[0]); err == nil {
				continue
			}
		}
		if n >= 6 && f[5] == "summary" {
			continue
		}
		if n < 7 {
			return nil, fmt.Errorf("rir: line %d: expected ≥7 fields, got %d", lineno, n)
		}
		v, err := strconv.ParseUint(f[4], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("rir: line %d: value: %w", lineno, err)
		}
		out = append(out, Record{
			Registry: f[0], CC: f[1], Type: f[2],
			Start: f[3], Value: v, Date: f[5], Status: f[6], OpaqueID: f[7],
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rir: read: %w", err)
	}
	return out, nil
}

// splitFields cuts line at each '|' into f and returns how many fields
// line has; those past len(f) are counted, not kept.
func splitFields(line string, f *[8]string) int {
	n := 0
	for {
		i := strings.IndexByte(line, '|')
		if n < len(f) {
			if i < 0 {
				f[n] = line
			} else {
				f[n] = line[:i]
			}
		}
		n++
		if i < 0 {
			return n
		}
		line = line[i+1:]
	}
}

// Read parses an extended delegation file and indexes its IPv4/IPv6
// records against AS numbers via opaque-id matching. Address records
// whose opaque-id has no ASN record are skipped (they carry no AS
// identity). Multiple files can be merged with ReadInto.
func Read(r io.Reader) (*Delegations, error) {
	d := New()
	if err := ReadInto(d, r); err != nil {
		return nil, err
	}
	return d, nil
}

// ReadStats tallies what a delegation scan consumed versus skipped.
type ReadStats struct {
	// Records is the number of parsed record lines of any type.
	Records int
	// AddrRecords is the number of ipv4/ipv6 records indexed.
	AddrRecords int
	// UnmatchedOpaque counts address records skipped because their
	// opaque-id had no matching asn record (they carry no AS identity).
	UnmatchedOpaque int
}

// ReadInto merges one extended delegation file into d.
func ReadInto(d *Delegations, r io.Reader) error {
	_, err := ReadIntoStats(d, r)
	return err
}

// ReadIntoStats is ReadInto returning skip tallies alongside the merge.
func ReadIntoStats(d *Delegations, r io.Reader) (ReadStats, error) {
	var stats ReadStats
	recs, err := ParseRecords(r)
	if err != nil {
		return stats, err
	}
	stats.Records = len(recs)
	// First pass: opaque-id → ASN. An asn record with Value > 1 covers a
	// consecutive block; the opaque-id maps to the first (deterministic).
	byOpaque := make(map[string]asn.ASN)
	for _, rec := range recs {
		if rec.Type != "asn" || rec.OpaqueID == "" {
			continue
		}
		a, err := asn.Parse(rec.Start)
		if err != nil {
			return stats, fmt.Errorf("rir: asn record %q: %w", rec.Start, err)
		}
		if _, dup := byOpaque[rec.OpaqueID]; !dup {
			byOpaque[rec.OpaqueID] = a
		}
	}
	for _, rec := range recs {
		switch rec.Type {
		case "ipv4":
			a, ok := byOpaque[rec.OpaqueID]
			if !ok || rec.OpaqueID == "" {
				stats.UnmatchedOpaque++
				continue
			}
			start, err := netip.ParseAddr(rec.Start)
			if err != nil {
				return stats, fmt.Errorf("rir: ipv4 record start %q: %w", rec.Start, err)
			}
			prefixes, err := netutil.RangeToPrefixes(start, rec.Value)
			if err != nil {
				return stats, fmt.Errorf("rir: ipv4 record %q/%d: %w", rec.Start, rec.Value, err)
			}
			for _, p := range prefixes {
				d.trie.Insert(p, a)
			}
			d.numRecords++
			stats.AddrRecords++
		case "ipv6":
			a, ok := byOpaque[rec.OpaqueID]
			if !ok || rec.OpaqueID == "" {
				stats.UnmatchedOpaque++
				continue
			}
			start, err := netip.ParseAddr(rec.Start)
			if err != nil {
				return stats, fmt.Errorf("rir: ipv6 record start %q: %w", rec.Start, err)
			}
			if rec.Value > 128 {
				return stats, fmt.Errorf("rir: ipv6 record %q: bad prefix length %d", rec.Start, rec.Value)
			}
			d.trie.Insert(netip.PrefixFrom(start, int(rec.Value)).Masked(), a)
			d.numRecords++
			stats.AddrRecords++
		}
	}
	return stats, nil
}

// WriteRecords writes records in extended delegation format, preceded by
// a minimal version header.
func WriteRecords(w io.Writer, registry string, recs []Record) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "2|%s|20180201|%d|19830101|20180201|+0000\n", registry, len(recs))
	for _, rec := range recs {
		line := strings.Join([]string{
			rec.Registry, rec.CC, rec.Type, rec.Start,
			strconv.FormatUint(rec.Value, 10), rec.Date, rec.Status, rec.OpaqueID,
		}, "|")
		if _, err := fmt.Fprintln(bw, line); err != nil {
			return err
		}
	}
	return bw.Flush()
}
