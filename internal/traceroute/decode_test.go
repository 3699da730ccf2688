package traceroute

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/netip"
	"strconv"
	"strings"
	"testing"
)

// scamperFixture is the sc_warts2json stream of
// TestJSONLScamperCompatibility.
var scamperFixture = strings.Join([]string{
	`{"type":"cycle-start","list_name":"default","id":1}`,
	`{"type":"trace","method":"icmp-paris","src":"192.0.2.1","dst":"203.0.113.9",` +
		`"hops":[{"addr":"198.51.100.1","probe_ttl":1,"icmp_type":11,"icmp_code":0,"rtt":1.5},` +
		`{"addr":"198.51.100.2","probe_ttl":2,"icmp_type":12},` +
		`{"addr":"203.0.113.9","probe_ttl":3,"icmp_type":0,"rtt":9.1}]}`,
	`{"type":"trace","src":"192.0.2.1","dst":"203.0.113.10",` +
		`"hops":[{"addr":"198.51.100.1","probe_ttl":1,"icmp_type":11}]}`,
	`{"type":"cycle-stop","id":1}`,
}, "\n")

// hop wraps one hop member list into a record that is otherwise fine,
// so a seed's verdict turns on the hop alone.
func hopRecord(members string) string {
	return `{"dst":"1.2.3.4","hops":[{"addr":"9.9.9.9","icmp_type":11,` + members + `}]}`
}

// differentialSeeds are the inputs on which encoding/json's behaviour
// is least obvious; each is a case the decoder once had to be taught,
// or could plausibly get wrong.
var differentialSeeds = []string{
	scamperFixture,
	// Escapes, in values and in keys; surrogate pairs, lone surrogates
	// and invalid UTF-8 (replaced, and a VP may carry the replacement).
	`{"vp":"a\"b\\c\/d\b\f\n\r\té😀\ud800x","dst":"1.2.3.4"}`,
	`{"vp":"bad-\xff-utf8","dst":"1.2.3.4","dst":"5.6.7.8"}`,
	`{"dst":"1.2.3.4","vp":"\ud800A","type":"trace"}`,
	`{"dst":"1.2.3.4","stop_reason":"GAPLIMIT"}`,
	`{"dst":"1.2.3.4","vp":"\u12"}`,
	`{"dst":"1.2.3.4","vp":"\x"}`,
	`{"dst":"1.2.3.4","vp":"tab	inside"}`,
	`{"dst":"fe80::1%\xff","hops":[]}`,
	// Key matching: exact, case-folded (with the two non-ASCII runes
	// that fold to ASCII letters), duplicates, last one wins.
	`{"DST":"1.2.3.4","Stop_Reason":"LOOP","HOPS":[{"ADDR":"9.9.9.9","Probe_TTL":3,"ICMP_TYPE":3,"RTT":2}]}`,
	"{\"dſt\":\"1.2.3.4\",\"ſtop_reaſon\":\"UNREACH\",\"hopſ\":[]}",
	`{"dst":"bogus","dst":"1.2.3.4","vp":"a","vp":"b","src":"x","src":""}`,
	`{"dst":"1.2.3.4","dst":"bogus"}`,
	`{"dst":"1.2.3.4","stop_reason":"LOOP","stop_reason":""}`,
	`{"type":"cycle-start","type":"trace","dst":"1.2.3.4"}`,
	`{"type":"trace","type":"cycle-stop","dst":"1.2.3.4"}`,
	`{"dst":"1.2.3.4","hops":[{"addr":"9.9.9.9","probe_ttl":1,"icmp_type":11,"rtt":5},{"addr":"8.8.8.8","probe_ttl":2,"icmp_type":0}],` +
		`"hops":[{"addr":"7.7.7.7"}],"hops":[{"probe_ttl":9},{"rtt":1}]}`,
	`{"dst":"1.2.3.4","hops":[{"addr":"9.9.9.9","icmp_type":11}],"hops":[],"hops":[{"probe_ttl":2}]}`,
	`{"dst":"1.2.3.4","hops":[{"addr":"9.9.9.9","icmp_type":11}],"hops":null,"hops":[{"probe_ttl":2}]}`,
	// null: a no-op on scalars, empties "hops", leaves a hop as it was.
	`{"type":null,"method":null,"vp":null,"src":null,"dst":"1.2.3.4","stop_reason":null,"hops":null}`,
	`{"dst":"1.2.3.4","dst":null,"vp":"keep","vp":null}`,
	`{"dst":null}`,
	`{"dst":"1.2.3.4","hops":[null]}`,
	`{"dst":"1.2.3.4","hops":[{"addr":"9.9.9.9","icmp_type":11}],"hops":[null]}`,
	hopRecord(`"probe_ttl":null,"rtt":null,"addr":null,"icmp_type":null`),
	`null`,
	// Fields the model does not use, nested, in trace and hop.
	`{"dst":"1.2.3.4","extra":{"a":[1,2,{"b":null}],"c":"d"},"list":[[],{},[{}]],"hops":[{"addr":"9.9.9.9","icmp_type":11,"icmpext":[{"ie_cn":1,"mpls_labels":[{"mpls_ttl":1}]}],"tx":{"sec":1,"usec":2}}]}`,
	`{"dst":"1.2.3.4","extra":{"a":[1,2,}}`,
	`{"dst":"1.2.3.4","extra":tru}`,
	`{"dst":"1.2.3.4","extra":01}`,
	`{"dst":"1.2.3.4","extra":-}`,
	`{"dst":"1.2.3.4","extra":1.}`,
	`{"dst":"1.2.3.4","extra":1e}`,
	`{"dst":"1.2.3.4","extra":-0.0e-0}`,
	`{"dst":"1.2.3.4",}`,
	`{"dst":"1.2.3.4"} x`,
	`{"dst":"1.2.3.4"}{"dst":"1.2.3.4"}`,
	"{\"dst\":\"1.2.3.4\"\x00}",
	` 	{ "dst" : "1.2.3.4" , "hops" : [ ] } 	`,
	`[{"dst":"1.2.3.4"}]`,
	// Wrong JSON types for known fields, also in records that would be
	// skipped for their type.
	`{"dst":5}`,
	`{"dst":"1.2.3.4","method":5}`,
	`{"type":"cycle-start","dst":5}`,
	`{"type":"cycle-start","hops":{}}`,
	`{"dst":"1.2.3.4","hops":[5]}`,
	`{"dst":"1.2.3.4","hops":"none"}`,
	hopRecord(`"probe_ttl":"1"`),
	hopRecord(`"rtt":"1"`),
	hopRecord(`"rtt":true`),
	// probe_ttl and icmp_type: integers in 0..255 only.
	hopRecord(`"probe_ttl":0`),
	hopRecord(`"probe_ttl":255`),
	hopRecord(`"probe_ttl":256`),
	hopRecord(`"probe_ttl":-1`),
	hopRecord(`"probe_ttl":-0`),
	hopRecord(`"probe_ttl":1e0`),
	hopRecord(`"probe_ttl":1.0`),
	hopRecord(`"probe_ttl":01`),
	hopRecord(`"probe_ttl":99999999999999999999999`),
	// rtt: anything float32 holds; overflow is an error, underflow not.
	hopRecord(`"rtt":3.4028235e38`),
	hopRecord(`"rtt":3.5e38`),
	hopRecord(`"rtt":1e400`),
	hopRecord(`"rtt":-1e-400`),
	hopRecord(`"rtt":-0`),
	// The exact path's edges: a mantissa just under and at 2^24, 10 and
	// 11 fraction digits, values that need rounding.
	hopRecord(`"rtt":16777215`),
	hopRecord(`"rtt":16777216`),
	hopRecord(`"rtt":1.6777215`),
	hopRecord(`"rtt":0.0000000001`),
	hopRecord(`"rtt":0.00000000001`),
	hopRecord(`"rtt":0.3`),
	hopRecord(`"rtt":1.0000001`),
	hopRecord(`"rtt":0.1234567890123456789012345678901234567890`),
	// Addresses: what netip.ParseAddr takes, nothing else.
	`{"dst":"::ffff:1.2.3.4","src":"2001:db8::1","hops":[{"addr":"fe80::1%eth0","icmp_type":11}]}`,
	`{"dst":"1.2.3.04"}`,
	`{"dst":"1.2.3"}`,
	`{"dst":"1.2.3.4.5"}`,
	`{"dst":"1.2.3.256"}`,
	`{"dst":"1..3.4"}`,
	`{"dst":"1.2.3.4 "}`,
	`{"dst":""}`,
	`{}`,
	// Hops outside the three reply classes are dropped before their
	// address is looked at; the tally survives a later error.
	`{"dst":"1.2.3.4","hops":[{"addr":"x","icmp_type":12},{"addr":"9.9.9.9","icmp_type":3}]}`,
	`{"dst":"1.2.3.4","hops":[{"icmp_type":12},{"addr":"x","icmp_type":11}]}`,
	`{"dst":"1.2.3.4","stop_reason":"NOPE","hops":[{"icmp_type":5}]}`,
	`{"dst":"bogus","hops":[{"icmp_type":5}]}`,
	// Line structure: CRLF, blank lines, whitespace-only lines, a final
	// line without a newline.
	"{\"dst\":\"1.2.3.4\"}\r\n\r\n\n{\"dst\":\"5.6.7.8\"}\r",
	"{\"dst\":\"1.2.3.4\"}\n   \n{\"dst\":\"5.6.7.8\"}",
	"{\"dst\":\"1.2.3.4\"}\n{\"dst\":\"5.6.7.8\"",
	"\n\n",
}

// largeDifferentialCases are checked like the seeds but kept out of the
// fuzz corpus: the engine spends a whole smoke run minimising mutants
// of a 70 KiB seed. They cover a line longer than the read buffer and
// encoding/json's nesting limit from both sides.
var largeDifferentialCases = []string{
	`{"dst":"1.2.3.4","pad":"` + strings.Repeat("x", 70<<10) + `"}` + "\n" + `{"dst":"5.6.7.8"}`,
	strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
	`{"dst":"1.2.3.4","x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"dst":"1.2.3.4","x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"dst":"1.2.3.4","hops":[{"x":` + strings.Repeat("[", 9997) + strings.Repeat("]", 9997) + `}]}`,
	`{"dst":"1.2.3.4","hops":[{"x":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `}]}`,
}

func TestJSONLDifferentialLarge(t *testing.T) {
	for _, c := range largeDifferentialCases {
		checkDifferential(t, []byte(c))
	}
}

// sameTrace is reflect.DeepEqual for traces with floats compared by
// bits, so that -0 and 0 differ.
func sameTrace(a, b *Trace) bool {
	if a.VP != b.VP || a.Src != b.Src || a.Dst != b.Dst || a.Stop != b.Stop || len(a.Hops) != len(b.Hops) {
		return false
	}
	if (a.Hops == nil) != (b.Hops == nil) {
		return false
	}
	for i, h := range a.Hops {
		g := b.Hops[i]
		if h.Addr != g.Addr || h.ProbeTTL != g.ProbeTTL || h.Reply != g.Reply ||
			math.Float32bits(h.RTTMillis) != math.Float32bits(g.RTTMillis) {
			return false
		}
	}
	return true
}

// checkDifferential runs the decoder and the json.Unmarshal oracle over
// in and fails on any divergence the contract forbids: the verdict, the
// line it falls on, any field of any trace, any tally. Only the error
// text after the line number may differ.
func checkDifferential(t *testing.T, in []byte) {
	t.Helper()
	var got, want []*Trace
	gotStats, gotErr := ReadJSONLStats(bytes.NewReader(in), func(tr *Trace) error { got = append(got, tr); return nil })
	wantStats, wantErr := readJSONLOracle(bytes.NewReader(in), func(tr *Trace) error { want = append(want, tr); return nil })
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("verdicts differ:\ndecoder: %v\n oracle: %v", gotErr, wantErr)
	}
	if gotErr != nil {
		var gotLine, wantLine int
		fmt.Sscanf(gotErr.Error(), "traceroute: jsonl line %d:", &gotLine)
		fmt.Sscanf(wantErr.Error(), "traceroute: jsonl line %d:", &wantLine)
		if gotLine != wantLine {
			t.Fatalf("errors on different lines:\ndecoder: %v\n oracle: %v", gotErr, wantErr)
		}
	}
	if gotStats != wantStats {
		t.Fatalf("stats differ: decoder %+v, oracle %+v", gotStats, wantStats)
	}
	if len(got) != len(want) {
		t.Fatalf("decoder delivered %d traces, oracle %d", len(got), len(want))
	}
	for i := range got {
		if !sameTrace(got[i], want[i]) {
			t.Fatalf("trace %d differs:\ndecoder: %+v\n oracle: %+v", i, got[i], want[i])
		}
	}
}

// FuzzJSONLDifferential holds the single-pass decoder to the accept set
// of the json.Unmarshal reader it replaced.
func FuzzJSONLDifferential(f *testing.F) {
	for _, s := range differentialSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDifferential)
}

// TestJSONLLineCap: a line is too long at 16 MiB with its terminator,
// one byte short of that it is read, and an unterminated final line may
// be one byte longer still only because end of input arrives with it.
func TestJSONLLineCap(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates 16 MiB lines")
	}
	line := func(n int) []byte {
		const head, tail = `{"dst":"1.2.3.4","pad":"`, `"}`
		return []byte(head + strings.Repeat("x", n-len(head)-len(tail)) + tail)
	}
	for _, c := range []struct {
		name string
		in   []byte
	}{
		{"fits with newline", append(line(maxLineBytes-1), '\n')},
		{"too long with newline", append(line(maxLineBytes), '\n')},
		{"fits unterminated", line(maxLineBytes - 1)},
		{"too long unterminated", line(maxLineBytes)},
	} {
		t.Run(c.name, func(t *testing.T) { checkDifferential(t, c.in) })
	}
	// A reader that returns io.EOF together with the last bytes lets a
	// full buffer through, as it did through bufio.Scanner.
	full, discard := line(maxLineBytes), func(*Trace) error { return nil }
	_, err := ReadJSONLStats(&dataEOFReader{full}, discard)
	_, oracleErr := readJSONLOracle(&dataEOFReader{full}, discard)
	if err != nil || oracleErr != nil {
		t.Errorf("full line arriving with EOF: decoder %v, oracle %v", err, oracleErr)
	}
}

// dataEOFReader returns io.EOF from the Read that delivers the last byte.
type dataEOFReader struct{ b []byte }

func (r *dataEOFReader) Read(p []byte) (int, error) {
	n := copy(p, r.b)
	if r.b = r.b[n:]; len(r.b) == 0 {
		return n, io.EOF
	}
	return n, nil
}

// writeCorpus returns n JSONL traces of 12 hops from 16 VPs.
func writeCorpus(tb testing.TB, n int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	for i := 0; i < n; i++ {
		tr := &Trace{
			VP:   fmt.Sprintf("vp-%d", i%16),
			Src:  netip.AddrFrom4([4]byte{192, 0, 2, byte(i % 16)}),
			Dst:  netip.AddrFrom4([4]byte{203, byte(i >> 8), byte(i), 9}),
			Stop: StopGapLimit,
		}
		for h := 0; h < 12; h++ {
			tr.Hops = append(tr.Hops, Hop{
				Addr:      netip.AddrFrom4([4]byte{10, byte(i), byte(h), 1}),
				ProbeTTL:  uint8(h + 1),
				Reply:     TimeExceeded,
				RTTMillis: float32(h) * 1.25,
			})
		}
		if err := w.Write(tr); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestJSONLAllocBudget: a decoded trace costs its Trace and its Hops;
// everything else (line buffer, hop scratch, VP names) is per reader.
func TestJSONLAllocBudget(t *testing.T) {
	const n = 1000
	corpus := writeCorpus(t, n)
	traces := make([]*Trace, 0, n)
	perRun := testing.AllocsPerRun(5, func() {
		traces = traces[:0]
		if _, err := ReadJSONLStats(bytes.NewReader(corpus), func(tr *Trace) error {
			traces = append(traces, tr)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	if len(traces) != n {
		t.Fatalf("decoded %d traces, want %d", len(traces), n)
	}
	if perTrace := perRun / n; perTrace > 3 {
		t.Errorf("%.2f allocations per trace, budget is 3", perTrace)
	}
}

// TestExactFloat32MatchesStrconv holds the exact path to
// strconv.ParseFloat bit for bit on random tokens around its limits
// (mantissas near 2^24, up to 12 fraction digits, leading zeros), and
// requires it to decline exactly the tokens outside them.
func TestExactFloat32MatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 200000; n++ {
		m := rng.Int63n(1 << 25)
		if n%2 == 0 {
			m = 1<<24 - 64 + rng.Int63n(128)
		}
		digits := strconv.FormatInt(m, 10)
		k := rng.Intn(13)
		if pad := k + 1 - len(digits); pad > 0 {
			digits = strings.Repeat("0", pad) + digits
		}
		tok := digits
		if k > 0 {
			tok = digits[:len(digits)-k] + "." + digits[len(digits)-k:]
		}
		got, ok := exactFloat32([]byte(tok))
		if want := m < 1<<24 && k <= 10; ok != want {
			t.Fatalf("%s: exact path taken %v, want %v", tok, ok, want)
		}
		want, err := strconv.ParseFloat(tok, 32)
		if err != nil {
			t.Fatal(err)
		}
		if ok && math.Float32bits(got) != math.Float32bits(float32(want)) {
			t.Fatalf("%s: exact path %v, strconv %v", tok, got, float32(want))
		}
	}
	for _, tok := range []string{"-1.5", "1e3", "1.5E-2"} {
		if _, ok := exactFloat32([]byte(tok)); ok {
			t.Errorf("%s: exact path taken for a sign or an exponent", tok)
		}
	}
}
