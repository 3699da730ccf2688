// Package mrt reads and writes MRT routing-table dumps (RFC 6396), the
// format Routeviews and RIPE RIS archives use — the paper's §4.1 origin
// data arrives as MRT TABLE_DUMP_V2 RIB files. The implemented subset
// is what IP→AS mapping needs: the PEER_INDEX_TABLE and the
// RIB_IPV4_UNICAST / RIB_IPV6_UNICAST subtypes with their AS_PATH
// attributes (4-byte AS numbers, AS_SEQUENCE and AS_SET segments).
package mrt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"slices"

	"repro/internal/arena"
	"repro/internal/asn"
	"repro/internal/bgp"
)

// MRT constants (RFC 6396).
const (
	typeTableDumpV2 = 13

	subtypePeerIndexTable = 1
	subtypeRIBIPv4Unicast = 2
	subtypeRIBIPv6Unicast = 4

	attrASPath = 2

	segASSet      = 1
	segASSequence = 2

	attrFlagExtendedLen = 0x10
)

// peer is one entry of the PEER_INDEX_TABLE.
type peer struct {
	as asn.ASN
	ip netip.Addr
}

// Read parses an MRT TABLE_DUMP_V2 stream into RIB routes: one Route
// per (prefix, peer) RIB entry, mirroring a multi-collector text RIB.
// Records of other MRT types are skipped. One buffer holds each record in
// turn, and the paths are cut from shared chunks (arena.Slab).
func Read(r io.Reader) ([]bgp.Route, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var (
		peers  []peer
		routes []bgp.Route
		hdr    [12]byte
		body   []byte
		d      ribDecoder
	)
	for recno := 1; ; recno++ {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return routes, nil
			}
			return nil, fmt.Errorf("mrt: record %d header: %w", recno, err)
		}
		typ := binary.BigEndian.Uint16(hdr[4:6])
		sub := binary.BigEndian.Uint16(hdr[6:8])
		length := binary.BigEndian.Uint32(hdr[8:12])
		if length > 1<<24 {
			return nil, fmt.Errorf("mrt: record %d: implausible length %d", recno, length)
		}
		if int(length) > cap(body) {
			body = make([]byte, length)
		}
		body = body[:length]
		if _, err := io.ReadFull(br, body); err != nil {
			return nil, fmt.Errorf("mrt: record %d body: %w", recno, err)
		}
		if typ != typeTableDumpV2 {
			continue
		}
		var err error
		switch sub {
		case subtypePeerIndexTable:
			peers, err = parsePeerIndex(body)
		case subtypeRIBIPv4Unicast, subtypeRIBIPv6Unicast:
			routes, err = d.parseRIB(routes, body, sub == subtypeRIBIPv6Unicast, peers)
		}
		if err != nil {
			return nil, fmt.Errorf("mrt: record %d: %w", recno, err)
		}
	}
}

func parsePeerIndex(b []byte) ([]peer, error) {
	cur := cursor{b: b}
	cur.skip(4) // collector BGP ID
	nameLen := int(cur.u16())
	cur.skip(nameLen)
	count := int(cur.u16())
	peers := make([]peer, 0, count)
	for i := 0; i < count; i++ {
		pt := cur.u8()
		cur.skip(4) // peer BGP ID
		// Take the address bytes before converting: a truncated body
		// yields a short slice, and the array conversion would panic.
		var ip netip.Addr
		if pt&0x01 != 0 {
			if b := cur.bytes(16); cur.err == nil {
				ip = netip.AddrFrom16([16]byte(b))
			}
		} else {
			if b := cur.bytes(4); cur.err == nil {
				ip = netip.AddrFrom4([4]byte(b))
			}
		}
		var as asn.ASN
		if pt&0x02 != 0 {
			as = asn.ASN(cur.u32())
		} else {
			as = asn.ASN(cur.u16())
		}
		if cur.err != nil {
			return nil, fmt.Errorf("peer index truncated at peer %d", i)
		}
		peers = append(peers, peer{as: as, ip: ip})
	}
	return peers, nil
}

// ribDecoder is what the RIB records of one dump share: the chunks the
// paths are cut from and the path being decoded.
type ribDecoder struct {
	paths arena.Slab[bgp.PathElem]
	path  []bgp.PathElem
}

// parseRIB appends the routes of one RIB record to routes.
func (d *ribDecoder) parseRIB(routes []bgp.Route, b []byte, v6 bool, peers []peer) ([]bgp.Route, error) {
	cur := cursor{b: b}
	cur.skip(4) // sequence number
	plen := int(cur.u8())
	nbytes := (plen + 7) / 8
	pfxBytes := cur.bytes(nbytes)
	if cur.err != nil {
		return nil, fmt.Errorf("rib entry truncated in prefix")
	}
	var addr netip.Addr
	if v6 {
		var a [16]byte
		copy(a[:], pfxBytes)
		addr = netip.AddrFrom16(a)
	} else {
		var a [4]byte
		copy(a[:], pfxBytes)
		addr = netip.AddrFrom4(a)
	}
	prefix := netip.PrefixFrom(addr, plen)
	if !prefix.IsValid() {
		return nil, fmt.Errorf("invalid prefix len %d", plen)
	}
	prefix = prefix.Masked()
	count := int(cur.u16())
	for i := 0; i < count; i++ {
		peerIdx := int(cur.u16())
		cur.skip(4) // originated time
		attrLen := int(cur.u16())
		attrs := cur.bytes(attrLen)
		if cur.err != nil {
			return nil, fmt.Errorf("rib entry %d truncated", i)
		}
		seg, err := asPathValue(attrs)
		if err != nil {
			return nil, fmt.Errorf("rib entry %d: %w", i, err)
		}
		// Decode behind a slot for the peer AS.
		if d.path, err = decodeSegments(append(d.path[:0], bgp.PathElem{}), seg); err != nil {
			return nil, fmt.Errorf("rib entry %d: %w", i, err)
		}
		path := d.path[1:]
		if len(path) == 0 {
			continue // no AS_PATH attribute: nothing to map
		}
		// Prepend the peer AS when the path does not already start
		// with it (standard practice when flattening collector RIBs).
		if peerIdx < len(peers) {
			if pa := peers[peerIdx].as; pa != asn.None && path[0].AS != pa {
				d.path[0] = bgp.PathElem{AS: pa}
				path = d.path
			}
		}
		p := d.paths.Take(len(path))
		copy(p, path)
		if len(routes) == cap(routes) {
			// At least double: append's own growth, 1.25× on large
			// slices, would allocate five times the final table on the
			// way there.
			routes = slices.Grow(routes, max(count-i, len(routes)))
		}
		routes = append(routes, bgp.Route{Prefix: prefix, Path: p})
	}
	return routes, nil
}

// asPathValue walks the BGP path attributes and returns the value of the
// AS_PATH, nil when there is none.
func asPathValue(b []byte) ([]byte, error) {
	cur := cursor{b: b}
	for cur.err == nil && cur.remaining() > 0 {
		flags := cur.u8()
		typ := cur.u8()
		var alen int
		if flags&attrFlagExtendedLen != 0 {
			alen = int(cur.u16())
		} else {
			alen = int(cur.u8())
		}
		val := cur.bytes(alen)
		if cur.err != nil {
			return nil, fmt.Errorf("attribute %d truncated", typ)
		}
		if typ == attrASPath {
			return val, nil
		}
	}
	return nil, nil
}

// decodeSegments appends the elements of the AS_PATH segments b to out
// (4-byte AS numbers, per RFC 6396 §4.3.4).
func decodeSegments(out []bgp.PathElem, b []byte) ([]bgp.PathElem, error) {
	cur := cursor{b: b}
	for cur.remaining() > 0 {
		segType := cur.u8()
		n := int(cur.u8())
		switch segType {
		case segASSequence:
			for i := 0; i < n && cur.err == nil; i++ {
				out = append(out, bgp.PathElem{AS: asn.ASN(cur.u32())})
			}
		case segASSet:
			set := make([]asn.ASN, 0, n)
			for i := 0; i < n && cur.err == nil; i++ {
				set = append(set, asn.ASN(cur.u32()))
			}
			slices.Sort(set)
			out = append(out, bgp.PathElem{Set: set})
		default:
			return nil, fmt.Errorf("unknown AS_PATH segment type %d", segType)
		}
		if cur.err != nil {
			return nil, fmt.Errorf("AS_PATH truncated")
		}
	}
	return out, nil
}

// cursor is a bounds-checked big-endian reader over a byte slice.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) remaining() int { return len(c.b) - c.off }

func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if c.off+n > len(c.b) {
		c.err = io.ErrUnexpectedEOF
		return nil
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out
}

func (c *cursor) skip(n int)         { c.take(n) }
func (c *cursor) bytes(n int) []byte { return c.take(n) }

func (c *cursor) u8() uint8 {
	b := c.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (c *cursor) u16() uint16 {
	b := c.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (c *cursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}
