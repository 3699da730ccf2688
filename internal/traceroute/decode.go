package traceroute

import (
	"bytes"
	"fmt"
	"net/netip"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The JSONL decoder goes from the bytes of one line straight to a
// *Trace in a single pass: no wire struct, no reflection, no string per
// address. Its accept set is encoding/json's for the struct the writer
// emits (jsonTrace), because batch intake quarantines on decode errors
// and a record the old json.Unmarshal path took must still be taken:
//
//   - the whole line is validated as one JSON value, fields the model
//     does not use included (skipValue), to encoding/json's nesting
//     limit;
//   - keys match exactly, else under Unicode simple case folding;
//   - the last occurrence of a duplicate key wins, and null leaves a
//     scalar as the previous occurrence set it;
//   - a known field of the wrong JSON type, a probe_ttl or icmp_type
//     that is not an integer in 0..255, and an rtt outside float32 are
//     errors;
//   - strings are unescaped with invalid UTF-8 and lone surrogates
//     replaced by U+FFFD.
//
// oracle_test.go keeps the json.Unmarshal path and FuzzJSONLDifferential
// holds the two to the same verdict, traces and tallies on every input.

// maxDepth is encoding/json's limit on nested arrays and objects.
const maxDepth = 10000

type decodeError string

func (e decodeError) Error() string { return string(e) }

const (
	errSyntax    decodeError = "invalid JSON"
	errNotObject decodeError = "record is not a JSON object"
	errType      decodeError = "field has the wrong JSON type"
	errRange     decodeError = "number out of range for its field"
	errDepth     decodeError = "exceeded max nesting depth"
	errDst       decodeError = "dst: missing or not an IP address"
	errSrc       decodeError = "src: not an IP address"
	errStop      decodeError = "unknown stop reason"
)

// Field indices into traceFields and hopFields.
const (
	fType = iota
	fMethod
	fVP
	fSrc
	fDst
	fStop
	fHops
)

const (
	fAddr = iota
	fProbeTTL
	fICMPType
	fRTT
)

var (
	traceFields = [][]byte{[]byte("type"), []byte("method"), []byte("vp"), []byte("src"), []byte("dst"), []byte("stop_reason"), []byte("hops")}
	hopFields   = [][]byte{[]byte("addr"), []byte("probe_ttl"), []byte("icmp_type"), []byte("rtt")}
)

// rawHop is a hop as the line states it, before the reply-class filter.
// A zero addr stands for both an absent and an unparsable address: the
// two are the same error once the hop is kept.
type rawHop struct {
	addr      netip.Addr
	ttl, icmp uint8
	rtt       float32
}

// decoder is the per-reader state: the cursor over the current line and
// the scratch every line reuses.
type decoder struct {
	line []byte
	pos  int

	str  []byte   // unescaped form of the string read last, when it needed one
	vps  interner // VP names seen by this reader
	hops []rawHop // hop scratch; see hopsValue for what outlives an array
	// hopsUsed is how many leading entries of hops hold values written
	// since the line began or "hops" was last emptied.
	hopsUsed int

	// The fields of the record being decoded.
	skip     bool // "type" names something other than a trace
	vp       string
	src, dst netip.Addr
	srcBad   bool // "src" is non-empty and not an address
	stop     StopReason
	stopSet  bool // "stop_reason" is non-empty
	stopBad  bool // ... and not a known reason
	nhops    int  // length of the last "hops" array
}

// decode decodes one non-blank line. It returns (nil, nil) for a record
// that is not a trace. Hops dropped for their reply class are added to
// stats as they are met, so a line that fails later has counted them.
func (d *decoder) decode(line []byte, stats *ReadStats) (*Trace, error) {
	d.line, d.pos = line, 0
	d.hopsUsed, d.nhops = 0, 0
	d.skip, d.vp, d.src, d.dst, d.srcBad = false, "", netip.Addr{}, netip.Addr{}, false
	d.stopSet, d.stopBad = false, false
	if err := d.record(); err != nil {
		return nil, fmt.Errorf("byte %d: %w", d.pos, err)
	}
	if d.skip {
		return nil, nil
	}
	return d.trace(stats)
}

// record parses the line as one JSON object and nothing else.
func (d *decoder) record() error {
	if d.next() != '{' {
		return errNotObject
	}
	if err := d.traceObject(); err != nil {
		return err
	}
	if d.next() != 0 || d.pos < len(d.line) {
		return errSyntax
	}
	return nil
}

// trace applies the checks that need the whole record, in the order the
// json.Unmarshal path made them, and builds the Trace.
func (d *decoder) trace(stats *ReadStats) (*Trace, error) {
	if !d.dst.IsValid() {
		return nil, errDst
	}
	if d.srcBad {
		return nil, errSrc
	}
	raw := d.hops[:d.nhops]
	kept := 0
	for i := range raw {
		if _, ok := replyFromICMP(raw[i].icmp); !ok {
			stats.DroppedHops++ // a reply class the heuristics do not consume
			continue
		}
		if !raw[i].addr.IsValid() {
			return nil, fmt.Errorf("hop %d addr: missing or not an IP address", i)
		}
		kept++
	}
	if d.stopBad {
		return nil, errStop
	}
	t := &Trace{VP: d.vp, Src: d.src, Dst: d.dst, Stop: d.stop}
	if kept > 0 {
		t.Hops = make([]Hop, 0, kept)
		for i := range raw {
			if rt, ok := replyFromICMP(raw[i].icmp); ok {
				t.Hops = append(t.Hops, Hop{Addr: raw[i].addr, ProbeTTL: raw[i].ttl, Reply: rt, RTTMillis: raw[i].rtt})
			}
		}
	}
	if !d.stopSet {
		if t.ReachedDst() {
			t.Stop = StopCompleted
		} else {
			t.Stop = StopGapLimit
		}
	}
	return t, nil
}

// traceObject parses the members of the record; the cursor is on '{'.
func (d *decoder) traceObject() error {
	d.pos++
	for first := true; ; first = false {
		key, done, err := d.nextKey(first)
		if err != nil || done {
			return err
		}
		f := matchField(key, traceFields)
		if f == fHops {
			err = d.hopsValue()
		} else if f < 0 {
			err = d.skipValue(1)
		} else {
			var s []byte
			if s, err = d.stringValue(); err == nil && s != nil {
				d.setString(f, s)
			}
		}
		if err != nil {
			return err
		}
	}
}

// setString stores one string-valued trace field.
func (d *decoder) setString(f int, s []byte) {
	switch f {
	case fType:
		d.skip = len(s) > 0 && string(s) != "trace"
	case fVP:
		d.vp = d.vps.intern(s)
	case fSrc:
		var ok bool
		d.src, ok = parseAddr(s)
		d.srcBad = !ok && len(s) > 0
	case fDst:
		d.dst, _ = parseAddr(s)
	case fStop:
		var ok bool
		d.stop, ok = lookupStop(string(s))
		d.stopSet = len(s) > 0
		d.stopBad = d.stopSet && !ok
	}
}

// hopsValue parses the value of "hops" into the hop scratch.
//
// encoding/json decodes a repeated "hops" array over the slice the
// earlier one left behind, so an element of the later array starts from
// whatever the element at its index last held, even past the length of
// an array in between; only an empty array or null starts afresh. The
// scratch keeps that: entries below hopsUsed are overlaid, not zeroed.
func (d *decoder) hopsValue() error {
	switch d.peek() {
	case 'n':
		d.nhops, d.hopsUsed = 0, 0
		return d.literal("null")
	case '[':
	default:
		return errType
	}
	d.pos++
	n := 0
	for first := true; ; first = false {
		done, err := d.nextElem(first)
		if err != nil {
			return err
		}
		if done {
			break
		}
		if n == len(d.hops) {
			d.hops = append(d.hops, rawHop{})
		}
		if n >= d.hopsUsed {
			d.hops[n] = rawHop{}
			d.hopsUsed = n + 1
		}
		if err := d.hopValue(&d.hops[n]); err != nil {
			return err
		}
		n++
	}
	d.nhops = n
	if n == 0 {
		d.hopsUsed = 0
	}
	return nil
}

// hopValue parses one element of "hops" over h.
func (d *decoder) hopValue(h *rawHop) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return errType
	}
	d.pos++
	for first := true; ; first = false {
		key, done, err := d.nextKey(first)
		if err != nil || done {
			return err
		}
		switch matchField(key, hopFields) {
		case fAddr:
			var s []byte
			if s, err = d.stringValue(); err == nil && s != nil {
				h.addr, _ = parseAddr(s)
			}
		case fProbeTTL:
			err = d.uint8Value(&h.ttl)
		case fICMPType:
			err = d.uint8Value(&h.icmp)
		case fRTT:
			err = d.float32Value(&h.rtt)
		default:
			err = d.skipValue(3)
		}
		if err != nil {
			return err
		}
	}
}

// stringValue parses a value that must be a string or null. The result
// is nil for null and non-nil, possibly empty, for a string; it is
// valid until the next string is read.
func (d *decoder) stringValue() ([]byte, error) {
	switch d.peek() {
	case '"':
		return d.readString()
	case 'n':
		return nil, d.literal("null")
	}
	return nil, errType
}

// uint8Value parses a value that must be an integer in 0..255 or null,
// which leaves *v alone.
func (d *decoder) uint8Value(v *uint8) error {
	c := d.peek()
	if c == 'n' {
		return d.literal("null")
	}
	if c < '0' || c > '9' {
		return errType
	}
	tok, err := d.scanNumber()
	if err != nil {
		return err
	}
	n := 0
	for _, c := range tok {
		if c < '0' || c > '9' || n > 255 {
			return errRange // a fraction, an exponent, or too large
		}
		n = n*10 + int(c-'0')
	}
	if n > 255 {
		return errRange
	}
	*v = uint8(n)
	return nil
}

// float32Value parses a value that must be a number float32 can hold or
// null, which leaves *v alone.
func (d *decoder) float32Value(v *float32) error {
	c := d.peek()
	if c == 'n' {
		return d.literal("null")
	}
	if c != '-' && (c < '0' || c > '9') {
		return errType
	}
	tok, err := d.scanNumber()
	if err != nil {
		return err
	}
	if f, ok := exactFloat32(tok); ok {
		*v = f
		return nil
	}
	f, err := strconv.ParseFloat(string(tok), 32)
	if err != nil {
		return errRange
	}
	*v = float32(f)
	return nil
}

// float32Pow10 are the powers of ten float32 holds exactly.
var float32Pow10 = [...]float32{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// exactFloat32 parses a validated number token of the form
// digits[.digits] whose digits, read as one integer m, stay below 2^24
// with at most 10 of them after the point: float32 holds m and 1e{k}
// exactly, so one IEEE division is the correctly rounded value, the
// exact path strconv.ParseFloat itself takes. ok is false for any
// other token.
//
//lint:hotpath
func exactFloat32(tok []byte) (f float32, ok bool) {
	m, k, frac := uint32(0), 0, false
	for _, c := range tok {
		switch {
		case '0' <= c && c <= '9':
			if m = m*10 + uint32(c-'0'); m >= 1<<24 {
				return 0, false
			}
			if frac {
				k++
			}
		case c == '.':
			frac = true
		default: // a sign or an exponent
			return 0, false
		}
	}
	if k >= len(float32Pow10) {
		return 0, false
	}
	return float32(m) / float32Pow10[k], true
}

// nextKey moves to the next member of the object the cursor is in and
// returns its key with the cursor on the member's value, or done at the
// closing brace. first says no member has been read yet. The key is
// valid until the next string is read.
//
//lint:hotpath
func (d *decoder) nextKey(first bool) (key []byte, done bool, err error) {
	c := d.next()
	if c == '}' {
		d.pos++
		return nil, true, nil
	}
	if !first {
		if c != ',' {
			return nil, false, errSyntax
		}
		d.pos++
		c = d.next()
	}
	if c != '"' {
		return nil, false, errSyntax
	}
	if key, err = d.readString(); err != nil {
		return nil, false, err
	}
	if d.next() != ':' {
		return nil, false, errSyntax
	}
	d.pos++
	d.next()
	return key, false, nil
}

// nextElem moves to the next element of the array the cursor is in,
// leaving the cursor on it, or reports done at the closing bracket.
//
//lint:hotpath
func (d *decoder) nextElem(first bool) (done bool, err error) {
	c := d.next()
	if c == ']' {
		d.pos++
		return true, nil
	}
	if !first {
		if c != ',' {
			return false, errSyntax
		}
		d.pos++
		d.next()
	}
	return false, nil
}

// peek returns the byte under the cursor, or 0 at the end of the line;
// a NUL is valid nowhere a caller looks, so the two need no telling
// apart.
//
//lint:hotpath
func (d *decoder) peek() byte {
	if d.pos < len(d.line) {
		return d.line[d.pos]
	}
	return 0
}

// next skips JSON whitespace and returns the byte then under the cursor.
//
//lint:hotpath
func (d *decoder) next() byte {
	for d.pos < len(d.line) {
		c := d.line[d.pos]
		if c > ' ' || c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return c
		}
		d.pos++
	}
	return 0
}

// literal consumes word, one of null, true and false.
//
//lint:hotpath
func (d *decoder) literal(word string) error {
	end := d.pos + len(word)
	if end > len(d.line) || string(d.line[d.pos:end]) != word {
		return errSyntax
	}
	d.pos = end
	return nil
}

// skipValue validates and consumes the value under the cursor, of any
// type; depth is the number of arrays and objects around it.
//
//lint:hotpath
func (d *decoder) skipValue(depth int) error {
	switch c := d.peek(); {
	case c == '"':
		_, _, err := d.scanString()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.scanNumber()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '{':
		if depth >= maxDepth {
			return errDepth
		}
		d.pos++
		for first := true; ; first = false {
			_, done, err := d.nextKey(first)
			if err != nil || done {
				return err
			}
			if err := d.skipValue(depth + 1); err != nil {
				return err
			}
		}
	case c == '[':
		if depth >= maxDepth {
			return errDepth
		}
		d.pos++
		for first := true; ; first = false {
			done, err := d.nextElem(first)
			if err != nil || done {
				return err
			}
			if err := d.skipValue(depth + 1); err != nil {
				return err
			}
		}
	}
	return errSyntax
}

// scanNumber validates and consumes the number under the cursor and
// returns its text.
//
//lint:hotpath
func (d *decoder) scanNumber() ([]byte, error) {
	line, i := d.line, d.pos
	if i < len(line) && line[i] == '-' {
		i++
	}
	j := skipDigits(line, i)
	if j == i || line[i] == '0' && j > i+1 {
		return nil, errSyntax // no digits, or a leading zero
	}
	i = j
	if i < len(line) && line[i] == '.' {
		if j = skipDigits(line, i+1); j == i+1 {
			return nil, errSyntax
		}
		i = j
	}
	if i < len(line) && (line[i] == 'e' || line[i] == 'E') {
		i++
		if i < len(line) && (line[i] == '+' || line[i] == '-') {
			i++
		}
		if j = skipDigits(line, i); j == i {
			return nil, errSyntax
		}
		i = j
	}
	tok := line[d.pos:i]
	d.pos = i
	return tok, nil
}

// skipDigits returns the index of the first byte of line at or after i
// that is not a decimal digit.
//
//lint:hotpath
func skipDigits(line []byte, i int) int {
	for i < len(line) && '0' <= line[i] && line[i] <= '9' {
		i++
	}
	return i
}

// scanString validates and consumes the string under the cursor, which
// is on its opening quote, and returns the bytes between the quotes.
// plain reports that they are the string's value as they stand: ASCII
// with no escapes.
//
//lint:hotpath
func (d *decoder) scanString() (raw []byte, plain bool, err error) {
	line, start := d.line, d.pos+1
	plain = true
	for i := start; i < len(line); i++ {
		c := line[i]
		if plainByte[c] {
			continue
		}
		switch {
		case c == '"':
			d.pos = i + 1
			return line[start:i], plain, nil
		case c == '\\':
			plain = false
			i++
			switch {
			case i == len(line): // unterminated: the loop ends
			case line[i] == 'u' && getu4(line[i-1:]) >= 0:
				i += 4
			case bytes.IndexByte(simpleEscapes, line[i]) < 0:
				d.pos = i
				return nil, false, errSyntax
			}
		case c < ' ':
			d.pos = i
			return nil, false, errSyntax
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	d.pos = len(line)
	return nil, false, errSyntax
}

// plainByte marks the bytes a string body holds as they stand:
// printable ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// simpleEscapes are the bytes that may follow a backslash, \u aside.
var simpleEscapes = []byte(`"\/bfnrt`)

// readString consumes the string under the cursor and returns its
// value: a sub-slice of the line when that is the value already, the
// str scratch otherwise.
//
//lint:hotpath
func (d *decoder) readString() ([]byte, error) {
	raw, plain, err := d.scanString()
	if err != nil || plain {
		return raw, err
	}
	d.str = unquote(d.str[:0], raw)
	return d.str, nil
}

// unquote appends the value of the validated string body raw to dst the
// way encoding/json reads it: escapes resolved, surrogate pairs joined,
// and lone surrogates and invalid UTF-8 replaced by U+FFFD.
//
//lint:hotpath
func unquote(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			i++
			switch raw[i] {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := getu4(raw[i-1:])
				i += 4
				if utf16.IsSurrogate(r) {
					if pair := utf16.DecodeRune(r, getu4(raw[i+1:])); pair != unicode.ReplacementChar {
						r = pair
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				dst = utf8.AppendRune(dst, r)
			default: // '"', '\\', '/'
				dst = append(dst, raw[i])
			}
			i++
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, n := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += n
		}
	}
	return dst
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
//
//lint:hotpath
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// matchField returns the index in names of the field key selects, or -1:
// the exact name when there is one, else the name equal to key under
// Unicode simple case folding, which is encoding/json's rule.
//
//lint:hotpath
func matchField(key []byte, names [][]byte) int {
	for i, name := range names {
		if bytes.Equal(key, name) {
			return i
		}
	}
	for i, name := range names {
		if bytes.EqualFold(key, name) {
			return i
		}
	}
	return -1
}

// parseAddr is netip.ParseAddr over bytes. Dotted quads, the whole of
// today's corpora, are parsed in place; anything else is netip's call,
// so that IPv6 text forms, zones and every rejection stay exactly its.
func parseAddr(b []byte) (netip.Addr, bool) {
	if a, ok := parseIPv4(b); ok {
		return a, true
	}
	a, err := netip.ParseAddr(string(b))
	return a, err == nil
}

// parseIPv4 accepts exactly four dot-separated decimal octets without
// leading zeros, the form netip.ParseAddr accepts for IPv4.
//
//lint:hotpath
func parseIPv4(b []byte) (netip.Addr, bool) {
	var (
		octets [4]byte
		field  int // octet being read
		val    int
		digits int
	)
	for _, c := range b {
		switch {
		case '0' <= c && c <= '9':
			if digits == 1 && val == 0 {
				return netip.Addr{}, false // leading zero
			}
			val = val*10 + int(c-'0')
			digits++
			if val > 255 {
				return netip.Addr{}, false
			}
		case c == '.' && digits > 0 && field < 3:
			octets[field] = byte(val)
			field++
			val, digits = 0, 0
		default:
			return netip.Addr{}, false
		}
	}
	if field != 3 || digits == 0 {
		return netip.Addr{}, false
	}
	octets[3] = byte(val)
	return netip.AddrFrom4(octets), true
}
