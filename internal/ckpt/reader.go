package ckpt

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
	"strconv"
)

// This file is the one payload codec behind the frame: every framed
// artifact (checkpoint, journal record, provenance artifact, serving
// snapshot) is decoded through Reader, under one rule set — the bytes an
// encoder here would choose, and no others:
//
//   - varints are minimal (no padding continuation bytes);
//   - booleans are the byte 0 or 1;
//   - an element count is read only through Count, which refuses it
//     unless count × the element's minimum encoding fits the payload
//     that remains, so a hostile count is refused before anything
//     allocates; a data value (an iteration number, a tally, an AS
//     number) is read through Int / U32 / I32, which bound it by its Go
//     type and never by the payload size.
//
// A value an accepted payload decodes to therefore re-encodes to the
// bytes it was read from.

// Reader is a bounds-checked cursor over a payload. The first violation
// latches a *FrameError; every later read returns the zero value and
// consumes nothing, so call sites stay linear and check Finish once.
type Reader struct {
	b    []byte
	off  int
	kind string
	err  *FrameError
}

// NewReader reads payload; kind names the artifact in its error.
func NewReader(payload []byte, kind string) *Reader {
	return &Reader{b: payload, kind: kind}
}

// Fail latches a refusal of the caller's own (an unknown enum value, an
// index out of range) unless an earlier one is already latched — so a
// caller checks what it read without asking first whether the read
// itself failed.
func (r *Reader) Fail(format string, args ...any) {
	r.fail(fmt.Sprintf(format, args...))
}

// fail is what the primitives call, with a reason built by
// concatenation: a field name passed to fmt would escape, and a caller
// that builds its names at run time would pay an allocation per read.
func (r *Reader) fail(reason string) {
	if r.err == nil {
		r.err = &FrameError{Kind: r.kind, Reason: reason}
	}
}

// OK reports whether no error is latched.
func (r *Reader) OK() bool { return r.err == nil }

// Finish returns the latched *FrameError, a *FrameError for payload
// bytes no field claimed, or nil.
func (r *Reader) Finish() error {
	if r.err == nil && r.off != len(r.b) {
		r.fail(strconv.Itoa(len(r.b)-r.off) + " trailing payload bytes")
	}
	if r.err == nil {
		return nil
	}
	return r.err
}

// take returns the next n bytes (aliasing the payload), or nil after
// latching a truncation error.
func (r *Reader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b)-r.off {
		r.fail("payload truncated reading " + what)
		return nil
	}
	b := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	b := r.take(1, "byte")
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool(what string) bool {
	v := r.Byte()
	if v > 1 {
		r.fail(what + " flag " + strconv.Itoa(int(v)) + " is not 0 or 1")
		return false
	}
	return v == 1
}

// U64 reads a little-endian 64-bit word.
func (r *Reader) U64() uint64 {
	b := r.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Uvarint reads a minimal unsigned varint.
func (r *Reader) Uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if !r.skipVarint(n, what) {
		return 0
	}
	return v
}

// Varint reads a minimal zigzag-encoded signed varint.
func (r *Reader) Varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if !r.skipVarint(n, what) {
		return 0
	}
	return v
}

// skipVarint consumes the n bytes encoding/binary reported for a varint
// at the cursor, refusing a truncated or overflowing one (n <= 0) and
// one padded out with a zero final byte.
func (r *Reader) skipVarint(n int, what string) bool {
	switch {
	case n <= 0:
		r.fail("malformed varint in " + what)
	case n > 1 && r.b[r.off+n-1] == 0:
		r.fail("non-minimal varint in " + what)
	default:
		r.off += n
		return true
	}
	return false
}

// bounded reads a data-valued uvarint that must not exceed max.
func (r *Reader) bounded(what, typ string, max uint64) uint64 {
	v := r.Uvarint(what)
	if v > max {
		r.fail(what + " overflows " + typ)
		return 0
	}
	return v
}

// Int reads a non-negative data value that must fit an int.
func (r *Reader) Int(what string) int { return int(r.bounded(what, "int", math.MaxInt)) }

// U32 reads a data value that must fit a uint32 (an AS number, a table
// index).
func (r *Reader) U32(what string) uint32 { return uint32(r.bounded(what, "uint32", math.MaxUint32)) }

// I32 reads a data value that must fit a non-negative int32.
func (r *Reader) I32(what string) int32 { return int32(r.bounded(what, "int32", math.MaxInt32)) }

// Count reads the declared number of elements that follow, each of
// which encodes to at least minBytesPer (>= 1) bytes, and refuses a
// count the remaining payload could not hold.
func (r *Reader) Count(what string, minBytesPer int) int {
	v := r.Uvarint(what)
	if r.err != nil {
		return 0
	}
	if left := len(r.b) - r.off; v > uint64(left/minBytesPer) {
		r.fail("declared " + what + " " + strconv.FormatUint(v, 10) + " exceeds remaining payload (" + strconv.Itoa(left) + " bytes)")
		return 0
	}
	return int(v)
}

// String reads a length-prefixed string.
func (r *Reader) String(what string) string {
	return string(r.take(r.Count(what, 1), what))
}

// Bytes reads a length-prefixed byte string in place: the slice aliases
// the payload.
func (r *Reader) Bytes(what string) []byte {
	return r.take(r.Count(what, 1), what)
}

// Blob reads a length-prefixed byte string into fresh memory (nil when
// empty).
func (r *Reader) Blob(what string) []byte {
	b := r.Bytes(what)
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// Addr reads an address written by AppendAddr: a length byte (4 or 16)
// and that many raw bytes.
func (r *Reader) Addr() netip.Addr {
	n := r.Byte()
	if n != 4 && n != 16 {
		r.Fail("address length %d (want 4 or 16)", n)
	}
	a, _ := netip.AddrFromSlice(r.take(int(n), "address"))
	return a
}

// Addr16 reads a fixed 16-byte address, IPv4 in its IPv4-mapped form
// (netip.Addr.As16), and returns it unmapped.
func (r *Reader) Addr16() netip.Addr {
	b := r.take(16, "address")
	if b == nil {
		return netip.Addr{}
	}
	return netip.AddrFrom16([16]byte(b)).Unmap()
}

// AppendString appends s as Reader.String reads it.
func AppendString(p []byte, s string) []byte {
	p = binary.AppendUvarint(p, uint64(len(s)))
	return append(p, s...)
}

// AppendBool appends v as Reader.Bool reads it.
func AppendBool(p []byte, v bool) []byte {
	if v {
		return append(p, 1)
	}
	return append(p, 0)
}

// AppendAddr appends a as Reader.Addr reads it, preserving the
// IPv4/IPv6 distinction.
func AppendAddr(p []byte, a netip.Addr) []byte {
	if a.Is4() {
		b := a.As4()
		return append(append(p, 4), b[:]...)
	}
	b := a.As16()
	return append(append(p, 16), b[:]...)
}
