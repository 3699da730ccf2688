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

// writerRecord wraps hops into a record in JSONLWriter's shape, and
// writerHop is one hop in that shape but for its rtt member; a seed that
// changes one thing in either tests the fast path's hand-over to the
// member loop at that byte.
func writerRecord(hops string) string {
	return `{"vp":"vp-1","src":"192.0.2.1","dst":"1.2.3.4","stop_reason":"GAPLIMIT","hops":[` + hops + `]}`
}

func writerHop(rtt string) string {
	return `{"addr":"9.9.9.9","probe_ttl":1,"icmp_type":11` + rtt + `}`
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
	// The fast path: the writer's shape, then one change to it each.
	writerRecord(writerHop(`,"rtt":1.234567`) + "," + writerHop("") + "," + writerHop(`,"rtt":12345678`)),
	writerRecord(`{"addr":"9.9.9.9","probe_ttl":01,"icmp_type":11}`),
	writerRecord(`{"addr":"9.9.9.9","probe_ttl":256,"icmp_type":11}`),
	writerRecord(`{"addr":"9.9.9.9","probe_ttl":1.0,"icmp_type":11}`),
	writerRecord(`{"addr":"9.9.9.9","probe_ttl":1e0,"icmp_type":11}`),
	writerRecord(`{"addr":"9.9.9.9","probe_ttl":1,"icmp_type":0011}`),
	writerRecord(writerHop(`,"rtt":-0`)),
	writerRecord(writerHop(`,"rtt":0`)),
	writerRecord(writerHop(`,"rtt":01.5`)),
	writerRecord(writerHop(`,"rtt":1.`)),
	writerRecord(writerHop(`,"rtt":1.5e2`)),
	writerRecord(writerHop(`,"rtt":15E-1`)),
	writerRecord(writerHop(`,"rtt":340282356779733661637539395458142568448`)),
	writerRecord(writerHop(`,"rtt":16777217`)),
	writerRecord(writerHop(`,"rtt":8388608.5`)),
	writerRecord(`{"\u0061ddr":"9.9.9.9","probe_ttl":1,"icmp_type":11}`),
	writerRecord(`{"addr":"9.9.9.\u0039","probe_ttl":1,"icmp_type":11}`),
	writerRecord(`{"addr":"9.9.9.09","probe_ttl":1,"icmp_type":11}`),
	writerRecord(`{"addr":"9.9.9.9.9","probe_ttl":1,"icmp_type":11}`),
	writerRecord(`{"addr":"2001:db8::9","probe_ttl":1,"icmp_type":11}`),
	writerRecord(`{ "addr":"9.9.9.9","probe_ttl":1,"icmp_type":11}`),
	writerRecord(`{"addr": "9.9.9.9","probe_ttl":1,"icmp_type":11}`),
	writerRecord(`{"addr":"9.9.9.9","probe_ttl":1 ,"icmp_type":11}`),
	writerRecord(writerHop(`,"rtt":1.5 `)),
	writerRecord(writerHop(`,"rtt":1.5,"probe_ttl":2`)),
	writerRecord(writerHop(`,"addr":"8.8.8.8"`)),
	writerRecord(`{"Addr":"9.9.9.9","probe_TTL":1,"icmp_type":11}`),
	writerRecord(writerHop(`,"RTT":1.5`)),
	strings.TrimSuffix(writerRecord(writerHop(`,"rtt":1.5`)), "}]}"),
	strings.TrimSuffix(writerRecord(writerHop(`,"rtt":1.5`)), "}") + `,"hops":[` + writerHop("") + `]}`,
	`{"vp":"vp-1","vp":"vp-2","src":"192.0.2.1","dst":"1.2.3.4","stop_reason":"GAPLIMIT","hops":[]}`,
	`{"vp" :"vp-1","src":"192.0.2.1","dst":"1.2.3.4","stop_reason":"GAPLIMIT","hops":[]}`,
	`{"vp":"a\u003cb","SRC":"192.0.2.1","dst":"1.2.3.4","stop_reason":"GAPLIMIT","hops":[]}`,
	`{"dst":"1.2.3.4","src":"192.0.2.1","hops":[],"stop_reason":"LOOP","dst":"5.6.7.8"}`,
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
// strconv.ParseFloat bit for bit on 2^20 random tokens of 7 to 17
// digits (the rtts of a campaign have 8), the point anywhere, and on
// tokens at and next to float32 midpoints, where rounding twice could
// go wrong. It must take exactly the tokens within its limits whose
// float64 quotient is not a float32 midpoint, and decline every other.
func TestExactFloat32MatchesStrconv(t *testing.T) {
	check := func(tok string) bool {
		got, ok := exactFloat32([]byte(tok))
		want, err := strconv.ParseFloat(tok, 32)
		if err != nil {
			t.Fatal(err)
		}
		if ok && math.Float32bits(got) != math.Float32bits(float32(want)) {
			t.Fatalf("%s: exact path %v, strconv %v", tok, got, float32(want))
		}
		return ok
	}
	// inLimits says whether the token's digits read below 2^53 with at
	// most 22 after the point.
	inLimits := func(tok string) bool {
		intPart, frac, _ := strings.Cut(tok, ".")
		m, err := strconv.ParseUint(intPart+frac, 10, 64)
		return err == nil && m < 1<<53 && len(frac) <= 22
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 1<<20; n++ {
		digits := make([]byte, 7+rng.Intn(11))
		for i := range digits {
			digits[i] = byte('0' + rng.Intn(10))
		}
		tok := string(digits)
		if k := rng.Intn(len(digits) + 1); k > 0 {
			tok = tok[:len(tok)-k] + "." + tok[len(tok)-k:]
		}
		q, _ := strconv.ParseFloat(tok, 64)
		want := inLimits(tok) && math.Float64bits(q)&(1<<29-1) != 1<<28
		if ok := check(tok); ok != want {
			t.Fatalf("%s: exact path taken %v, want %v", tok, ok, want)
		}
	}
	// Midpoints between float32 neighbours in [2^p, 2^p+1), written out
	// exactly, shortest (a token that reads as the midpoint in float64
	// but is not it), and one unit in the last place either side.
	declined := 0
	for n := 0; n < 200000; n++ {
		p := 10 + rng.Intn(44)
		lo := math.Float32frombits(uint32(p+127)<<23 | uint32(rng.Intn(1<<23-1)))
		mid := (float64(lo) + float64(math.Nextafter32(lo, float32(math.Inf(1))))) / 2
		exact := strconv.FormatFloat(mid, 'f', max(0, 24-p), 64)
		for _, tok := range []string{exact, strconv.FormatFloat(mid, 'f', -1, 64), bump(exact, 1), bump(exact, -1)} {
			ok := check(tok)
			if q, _ := strconv.ParseFloat(tok, 64); q == mid && inLimits(tok) {
				if ok {
					t.Fatalf("%s: exact path taken on a float32 midpoint", tok)
				}
				declined++
			}
		}
	}
	if declined < 10000 {
		t.Errorf("only %d midpoint tokens within the exact path's limits", declined)
	}
	for _, tok := range []string{"-1.5", "1e3", "1.5E-2"} {
		if _, ok := exactFloat32([]byte(tok)); ok {
			t.Errorf("%s: exact path taken for a sign or an exponent", tok)
		}
	}
}

// bump adds delta, ±1, to the last digit of the decimal token tok,
// carrying or borrowing; it returns tok when the result would need a
// new leading digit or lose its last.
func bump(tok string, delta int) string {
	b := []byte(tok)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] == '.' {
			continue
		}
		if d := int(b[i]-'0') + delta; d >= 0 && d <= 9 {
			b[i] = byte('0' + d)
			return string(b)
		}
		b[i] = byte('0' + (10+delta)%10)
	}
	return tok
}

// TestWriterShapeTakesFastPath writes a campaign's worth of traces (the
// simulator's shape: IPv4, TTLs from 1, rtt = 0.8·ttl + U[0,2) ms) and
// walks each line the way traceObject and hopsValue do, requiring every
// hop to match fastHop. A writer change that leaves the fast path's
// shape fails here instead of only costing the decoder its speed.
func TestWriterShapeTakesFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(2018))
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	var traces []*Trace
	for i := 0; i < 2000; i++ {
		tr := &Trace{Stop: StopReason(i % 4), Dst: netip.AddrFrom4([4]byte{byte(rng.Intn(224)), byte(i), 0, 9})}
		if i%7 != 0 {
			tr.VP = fmt.Sprintf("vp-%d", i%9)
		}
		if i%5 != 0 {
			tr.Src = netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})
		}
		for ttl := 1; ttl <= rng.Intn(32); ttl++ {
			tr.Hops = append(tr.Hops, Hop{
				Addr:      netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(ttl), byte(rng.Intn(256))}),
				ProbeTTL:  uint8(ttl),
				Reply:     ReplyType(rng.Intn(3)),
				RTTMillis: float32(ttl)*0.8 + float32(rng.Float64()*2),
			})
		}
		if len(tr.Hops) > 0 && i%3 == 0 {
			tr.Hops[0].RTTMillis = 0 // written without "rtt"
		}
		if err := w.Write(tr); err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	for n, line := range lines {
		tr := traces[n]
		d := decoder{line: line, pos: 1, vps: make(interner)}
		for first := true; ; first = false {
			key, done, err := d.nextKey(first)
			if err != nil || done {
				t.Fatalf("line %d: no hops (%v):\n%s", n+1, err, line)
			}
			if matchField(key, traceFields) == fHops {
				break
			}
			if _, err := d.stringValue(); err != nil {
				t.Fatalf("line %d: %v", n+1, err)
			}
		}
		d.pos++ // the '[' of "hops"
		for i := range tr.Hops {
			if _, err := d.nextElem(i == 0); err != nil {
				t.Fatalf("line %d: %v", n+1, err)
			}
			var h rawHop
			if !d.fastHop(&h) {
				t.Fatalf("line %d: hop %d at byte %d not taken by the fast path:\n%s", n+1, i, d.pos, line)
			}
		}
		if rest := string(line[d.pos:]); rest != "]}" {
			t.Fatalf("line %d: %q after the hops", n+1, rest)
		}
	}
	checkDifferential(t, buf.Bytes())
}
