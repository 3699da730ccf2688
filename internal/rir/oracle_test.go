package rir

import (
	"bufio"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// oracleParseRecords is ParseRecords as it was before the fixed field
// array: a strings.Split per line and an Atoi of every first field. It is
// the reference the fixture and FuzzRead hold ParseRecords to.
func oracleParseRecords(r io.Reader) ([]Record, error) {
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
		fields := strings.Split(line, "|")
		if _, err := strconv.Atoi(fields[0]); err == nil {
			continue
		}
		if len(fields) >= 6 && fields[5] == "summary" {
			continue
		}
		if len(fields) < 7 {
			return nil, fmt.Errorf("rir: line %d: expected ≥7 fields, got %d", lineno, len(fields))
		}
		v, err := strconv.ParseUint(fields[4], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("rir: line %d: value: %w", lineno, err)
		}
		rec := Record{
			Registry: fields[0], CC: fields[1], Type: fields[2],
			Start: fields[3], Value: v, Date: fields[5], Status: fields[6],
		}
		if len(fields) >= 8 {
			rec.OpaqueID = fields[7]
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rir: read: %w", err)
	}
	return out, nil
}

// sameRecords requires ParseRecords and the oracle to agree on in: the
// same records, or the same error.
func sameRecords(t *testing.T, in string) {
	t.Helper()
	got, err := ParseRecords(strings.NewReader(in))
	want, werr := oracleParseRecords(strings.NewReader(in))
	if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseRecords(%q) = %d records, %v; the oracle %d, %v", in, len(got), err, len(want), werr)
	}
}

// recordsFixture is a delegation file of 1 000 record lines around a
// version header, a summary line and comments.
func recordsFixture() string {
	var b strings.Builder
	b.WriteString("2|apnic|20180201|1003|19830101|20180201|+1000\n# comment\napnic|*|ipv4|*|500|summary\n\n")
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&b, "apnic|AU|asn|%d|1|20100101|assigned|org-%d\n", 64496+i, i)
		fmt.Fprintf(&b, "apnic|AU|ipv4|10.%d.%d.0|256|20100101|allocated|org-%d\n", i/256, i%256, i)
	}
	return b.String()
}

func TestParseRecordsMatchesOracle(t *testing.T) {
	sameRecords(t, recordsFixture())
	sameRecords(t, sampleDelegated)
	for _, in := range []string{
		"", "|", "||||||", "+1|x\n", "-1|a|b|c|1|d|e\n", "99999999999999999999|a|b|c|1|d|e\n",
		"+|a|b|c|1|d|e\n", "0x1|a|b|c|1|d|e\n", "a|b|c|d|1|summary\n", "a|b|c|d|1\n",
		"a|b|c|d|x|e|f\n", "a|b|c|d|1|e|f|g|h|i\n", "a|b|c|d|1|e|f|\n", " 7 |a\n",
	} {
		sameRecords(t, in)
	}
}

// TestParseRecordsAllocs is the allocation ceiling of ParseRecords on
// the fixture: the line's string and the growing result, and no slice
// or failed-Atoi error per line. It measured 1 017 allocations (the
// reader before: 4 021); the ceiling leaves about 10 %.
func TestParseRecordsAllocs(t *testing.T) {
	in := recordsFixture()
	const ceiling = 1120
	parse := func(f func(io.Reader) ([]Record, error)) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := f(strings.NewReader(in)); err != nil {
				t.Fatal(err)
			}
		})
	}
	got, old := parse(ParseRecords), parse(oracleParseRecords)
	t.Logf("ParseRecords: %.0f allocations, the replaced reader %.0f", got, old)
	if got > ceiling {
		t.Errorf("ParseRecords made %.0f allocations on the fixture, above its ceiling of %d", got, ceiling)
	}
	if old <= ceiling {
		t.Errorf("the replaced reader made %.0f allocations, within the ceiling of %d: the ceiling no longer tells them apart", old, ceiling)
	}
}
