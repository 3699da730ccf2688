// Package netutil provides small IP address helpers shared across the
// bdrmapIT substrates: CIDR arithmetic, special-purpose address
// classification, range-to-CIDR expansion used by the RIR delegation
// parser, and the text readers' field splitting and address parsing.
package netutil

import (
	"fmt"
	"math/bits"
	"net/netip"
	"unicode"
	"unicode/utf8"
)

// CutField returns the first field of s, as strings.Fields splits s, and
// what follows the field; field is empty when s has no more fields. A
// reader walks a line with it field by field, without a slice of them.
func CutField[S ~string | ~[]byte](s S) (field, rest S) {
	start := -1
	for i := 0; i < len(s); {
		r, n := rune(s[i]), 1
		if r >= utf8.RuneSelf { // at most UTFMax bytes, so a []byte's string is made on the stack
			r, n = utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		}
		if space := unicode.IsSpace(r); start < 0 && !space {
			start = i
		} else if start >= 0 && space {
			return s[start:i], s[i:]
		}
		i += n
	}
	if start < 0 {
		start = len(s)
	}
	return s[start:], s[len(s):]
}

// ParseAddr is netip.ParseAddr over bytes. Dotted quads, the bulk of
// every corpus, are parsed in place; anything else is netip's call, so
// IPv6 text forms, zones and every rejection and its error stay its.
func ParseAddr(b []byte) (netip.Addr, error) {
	if a, ok := parseIPv4(b); ok {
		return a, nil
	}
	return netip.ParseAddr(string(b))
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

// AddrToUint32 returns the IPv4 address as a big-endian uint32.
// It panics if a is not an IPv4 (or 4-in-6 mapped) address.
func AddrToUint32(a netip.Addr) uint32 {
	a = a.Unmap()
	if !a.Is4() {
		panic(fmt.Sprintf("netutil: AddrToUint32 on non-IPv4 address %v", a))
	}
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// Uint32ToAddr converts a big-endian uint32 into an IPv4 netip.Addr.
func Uint32ToAddr(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// Slash24 returns the /24 prefix containing a. For IPv6 addresses it
// returns the /48 (the closest analogue used for aggregation heuristics).
func Slash24(a netip.Addr) netip.Prefix {
	a = a.Unmap()
	bits := 24
	if a.Is6() {
		bits = 48
	}
	p, err := a.Prefix(bits)
	if err != nil {
		// Unreachable: bits is always valid for the address family.
		panic(err)
	}
	return p
}

// specialV4 lists IPv4 prefixes that can never identify an operator:
// private, loopback, link-local, CGN, documentation, multicast, and
// reserved space. Traceroute hops inside these ranges are treated like
// unresponsive hops by the graph builder.
var specialV4 = []netip.Prefix{
	netip.MustParsePrefix("0.0.0.0/8"),
	netip.MustParsePrefix("10.0.0.0/8"),
	netip.MustParsePrefix("100.64.0.0/10"),
	netip.MustParsePrefix("127.0.0.0/8"),
	netip.MustParsePrefix("169.254.0.0/16"),
	netip.MustParsePrefix("172.16.0.0/12"),
	netip.MustParsePrefix("192.0.0.0/24"),
	netip.MustParsePrefix("192.0.2.0/24"),
	netip.MustParsePrefix("192.168.0.0/16"),
	netip.MustParsePrefix("198.18.0.0/15"),
	netip.MustParsePrefix("198.51.100.0/24"),
	netip.MustParsePrefix("203.0.113.0/24"),
	netip.MustParsePrefix("224.0.0.0/3"),
}

var specialV6 = []netip.Prefix{
	netip.MustParsePrefix("::/8"),
	netip.MustParsePrefix("fc00::/7"),
	netip.MustParsePrefix("fe80::/10"),
	netip.MustParsePrefix("ff00::/8"),
	netip.MustParsePrefix("2001:db8::/32"),
}

// IsSpecial reports whether a falls inside private or otherwise
// special-purpose address space that cannot be mapped to an operator.
func IsSpecial(a netip.Addr) bool {
	if !a.IsValid() {
		return true
	}
	a = a.Unmap()
	if a.Is4() {
		for _, p := range specialV4 {
			if p.Contains(a) {
				return true
			}
		}
		return false
	}
	for _, p := range specialV6 {
		if p.Contains(a) {
			return true
		}
	}
	return false
}

// RangeToPrefixes expands the inclusive IPv4 range [start, start+count-1]
// into the minimal list of CIDR prefixes. RIR extended delegation files
// describe IPv4 blocks by start address and address count, and counts are
// not always powers of two.
func RangeToPrefixes(start netip.Addr, count uint64) ([]netip.Prefix, error) {
	start = start.Unmap()
	if !start.Is4() {
		return nil, fmt.Errorf("netutil: RangeToPrefixes requires IPv4 start, got %v", start)
	}
	if count == 0 {
		return nil, fmt.Errorf("netutil: RangeToPrefixes with zero count")
	}
	cur := uint64(AddrToUint32(start))
	end := cur + count // exclusive
	if end > 1<<32 {
		return nil, fmt.Errorf("netutil: range %v + %d overflows IPv4 space", start, count)
	}
	var out []netip.Prefix
	for cur < end {
		// Largest block aligned at cur.
		maxAlign := uint64(1) << bits.TrailingZeros64(cur)
		if cur == 0 {
			maxAlign = 1 << 32
		}
		remain := end - cur
		size := maxAlign
		if size > remain {
			size = remain
		}
		// Round size down to a power of two.
		size = uint64(1) << (63 - bits.LeadingZeros64(size))
		prefixLen := 32 - bits.TrailingZeros64(size)
		out = append(out, netip.PrefixFrom(Uint32ToAddr(uint32(cur)), prefixLen))
		cur += size
	}
	return out, nil
}

// NthAddr returns the address at offset n within prefix p, or an invalid
// Addr if the offset exceeds the prefix size. Only IPv4 is supported; the
// simulator allocates interface addresses with it.
func NthAddr(p netip.Prefix, n uint32) netip.Addr {
	a := p.Addr().Unmap()
	if !a.Is4() {
		return netip.Addr{}
	}
	size := uint64(1) << (32 - p.Bits())
	if uint64(n) >= size {
		return netip.Addr{}
	}
	return Uint32ToAddr(AddrToUint32(a) + n)
}

// PrefixSize returns the number of addresses covered by an IPv4 prefix.
func PrefixSize(p netip.Prefix) uint64 {
	if !p.Addr().Unmap().Is4() {
		return 0
	}
	return uint64(1) << (32 - p.Bits())
}

// SplitPrefix splits p into 2^n sub-prefixes of length p.Bits()+n.
// It is used by the simulator to carve customer reallocations and
// interdomain link subnets out of an AS aggregate.
func SplitPrefix(p netip.Prefix, n int) ([]netip.Prefix, error) {
	a := p.Addr().Unmap()
	if !a.Is4() {
		return nil, fmt.Errorf("netutil: SplitPrefix requires IPv4, got %v", p)
	}
	newBits := p.Bits() + n
	if newBits > 32 {
		return nil, fmt.Errorf("netutil: cannot split %v into /%d", p, newBits)
	}
	count := 1 << n
	step := uint32(1) << (32 - newBits)
	base := AddrToUint32(a)
	out := make([]netip.Prefix, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, netip.PrefixFrom(Uint32ToAddr(base+uint32(i)*step), newBits))
	}
	return out, nil
}
