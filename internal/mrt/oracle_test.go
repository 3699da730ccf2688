package mrt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"sort"

	"repro/internal/asn"
	"repro/internal/bgp"
)

// oracleRead is Read as it was before it shared one record buffer and
// chunks of path elements: a fresh body per record and a path per RIB
// entry, the peer AS prepended by copying. The differential tests hold
// Read to it.
func oracleRead(r io.Reader) ([]bgp.Route, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var peers []peer
	var routes []bgp.Route
	for recno := 1; ; recno++ {
		var hdr [12]byte
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
		body := make([]byte, length)
		if _, err := io.ReadFull(br, body); err != nil {
			return nil, fmt.Errorf("mrt: record %d body: %w", recno, err)
		}
		if typ != typeTableDumpV2 {
			continue
		}
		switch sub {
		case subtypePeerIndexTable:
			ps, err := parsePeerIndex(body)
			if err != nil {
				return nil, fmt.Errorf("mrt: record %d: %w", recno, err)
			}
			peers = ps
		case subtypeRIBIPv4Unicast, subtypeRIBIPv6Unicast:
			rs, err := oracleParseRIB(body, sub == subtypeRIBIPv6Unicast, peers)
			if err != nil {
				return nil, fmt.Errorf("mrt: record %d: %w", recno, err)
			}
			routes = append(routes, rs...)
		}
	}
}

func oracleParseRIB(b []byte, v6 bool, peers []peer) ([]bgp.Route, error) {
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
	count := int(cur.u16())
	var routes []bgp.Route
	for i := 0; i < count; i++ {
		peerIdx := int(cur.u16())
		cur.skip(4) // originated time
		attrLen := int(cur.u16())
		attrs := cur.bytes(attrLen)
		if cur.err != nil {
			return nil, fmt.Errorf("rib entry %d truncated", i)
		}
		path, err := oracleParseASPath(attrs)
		if err != nil {
			return nil, fmt.Errorf("rib entry %d: %w", i, err)
		}
		if len(path) == 0 {
			continue // no AS_PATH attribute: nothing to map
		}
		// Prepend the peer AS when the path does not already start
		// with it (standard practice when flattening collector RIBs).
		if peerIdx < len(peers) {
			pa := peers[peerIdx].as
			if pa != asn.None && (len(path) == 0 || path[0].AS != pa) {
				path = append([]bgp.PathElem{{AS: pa}}, path...)
			}
		}
		routes = append(routes, bgp.Route{Prefix: prefix.Masked(), Path: path})
	}
	return routes, nil
}

// oracleParseASPath walks the BGP path attributes and decodes the AS_PATH
// (4-byte AS numbers, per RFC 6396 §4.3.4).
func oracleParseASPath(b []byte) ([]bgp.PathElem, error) {
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
		if typ != attrASPath {
			continue
		}
		return oracleDecodeSegments(val)
	}
	return nil, nil
}

func oracleDecodeSegments(b []byte) ([]bgp.PathElem, error) {
	cur := cursor{b: b}
	var out []bgp.PathElem
	for cur.remaining() > 0 {
		segType := cur.u8()
		n := int(cur.u8())
		switch segType {
		case segASSequence:
			for i := 0; i < n; i++ {
				out = append(out, bgp.PathElem{AS: asn.ASN(cur.u32())})
			}
		case segASSet:
			set := make([]asn.ASN, 0, n)
			for i := 0; i < n; i++ {
				set = append(set, asn.ASN(cur.u32()))
			}
			sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
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
