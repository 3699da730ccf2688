package prov

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/netip"
	"os"

	"repro/internal/asn"
	"repro/internal/ckpt"
)

// Version is the artifact format version; Decode refuses any other —
// reinterpreting provenance bytes across revisions would mislabel
// decisions, which is worse than re-running.
const Version = 1

// magic identifies a bdrmapIT provenance artifact (8 bytes, sibling of
// ckpt's "BMITCKPT").
const magic = "BMITPROV"

// FormatError reports an artifact that failed structural validation:
// wrong magic or version, bad length, failed CRC, or a malformed
// payload. Corruption is detected here rather than surfacing as
// nonsense explanations.
type FormatError struct {
	Reason string
}

func (e *FormatError) Error() string {
	if e == nil {
		return "prov: invalid artifact"
	}
	return "prov: invalid artifact: " + e.Reason
}

// Encode writes a to w in the artifact format: the shared artifact
// envelope (ckpt.WriteFrame: magic, version, length prefix, trailing
// IEEE CRC) around the provenance payload, so the artifact is safe to
// mmap or stream and torn/bit-rotted files are detected on load.
// Encoding is a pure function of a: re-encoding a decoded artifact is
// byte-identical, which is what makes cross-worker and cross-resume
// artifact comparison a plain byte comparison.
func Encode(w io.Writer, a *Artifact) error {
	if a == nil {
		return errors.New("prov: nil artifact")
	}
	return ckpt.WriteFrame(w, magic, Version, appendPayload(nil, a))
}

func appendPayload(p []byte, a *Artifact) []byte {
	p = binary.AppendUvarint(p, uint64(a.Iterations))
	var flags byte
	if a.Converged {
		flags |= 1
	}
	if a.Interrupted {
		flags |= 2
	}
	p = append(p, flags)
	p = binary.AppendUvarint(p, uint64(a.CycleLength))
	p = binary.AppendUvarint(p, uint64(len(a.Routers)))
	for i := range a.Routers {
		r := &a.Routers[i]
		p = binary.AppendUvarint(p, uint64(r.Annotation))
		if r.LastHop {
			p = append(p, 1)
		} else {
			p = append(p, 0)
		}
		p = appendRecord(p, &r.Record)
	}
	p = binary.AppendUvarint(p, uint64(len(a.Ifaces)))
	for i := range a.Ifaces {
		f := &a.Ifaces[i]
		b := f.Addr.As16()
		p = append(p, b[:]...)
		p = binary.AppendUvarint(p, uint64(f.Origin))
		p = binary.AppendUvarint(p, uint64(f.Annotation))
		p = binary.AppendUvarint(p, uint64(f.Router))
		p = append(p, byte(f.Rule))
	}
	return p
}

func appendRecord(p []byte, r *Record) []byte {
	p = append(p, byte(r.Rule), byte(r.Tie))
	p = binary.AppendUvarint(p, uint64(r.Winner))
	p = binary.AppendUvarint(p, uint64(r.WinnerVotes))
	p = binary.AppendUvarint(p, uint64(r.RunnerUp))
	p = binary.AppendUvarint(p, uint64(r.RunnerUpVotes))
	p = binary.AppendUvarint(p, uint64(r.Iter))
	return p
}

// Decode reads one artifact from r, validating magic, version, the
// length prefix, the trailing CRC, and every payload bound. Structural
// failures return a *FormatError; Decode never panics on corrupt input.
// Only Encode's own byte choices are accepted — minimal varints, 0/1
// booleans, no unknown flag bits — so an accepted artifact re-encodes
// to the bytes it was read from.
func Decode(r io.Reader) (*Artifact, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("prov: reading artifact: %w", err)
	}
	payload, err := ckpt.ReadFrame(data, magic, Version, "bdrmapIT provenance artifact")
	if err != nil {
		var fe *ckpt.FrameError
		if errors.As(err, &fe) {
			return nil, &FormatError{Reason: fe.Reason}
		}
		return nil, err
	}
	d := &decoder{b: payload}
	a := &Artifact{Iterations: d.intv("iterations")}
	flags := d.u8()
	if flags&^3 != 0 {
		d.fail(fmt.Sprintf("unknown flag bits %#x", flags))
	}
	a.Converged = flags&1 != 0
	a.Interrupted = flags&2 != 0
	a.CycleLength = d.intv("cycle length")
	n := d.count("router count")
	d.checkLen(n, 9, "router records")
	if d.err == nil && n > 0 {
		a.Routers = make([]RouterRec, 0, n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		var rr RouterRec
		rr.Annotation = asn.ASN(d.u32v("router annotation"))
		lastHop := d.u8()
		if lastHop > 1 {
			d.fail(fmt.Sprintf("router last-hop flag %d is not 0 or 1", lastHop))
		}
		rr.LastHop = lastHop == 1
		d.record(&rr.Record)
		a.Routers = append(a.Routers, rr)
	}
	n = d.count("interface count")
	d.checkLen(n, 20, "interface records")
	if d.err == nil && n > 0 {
		a.Ifaces = make([]Iface, 0, n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		var f Iface
		f.Addr = d.addr()
		f.Origin = asn.ASN(d.u32v("interface origin"))
		f.Annotation = asn.ASN(d.u32v("interface annotation"))
		f.Router = d.i32v("interface router index")
		f.Rule = IfaceRule(d.u8())
		if d.err == nil {
			if f.Rule >= NumIfaceRules {
				d.fail(fmt.Sprintf("unknown interface rule %d", f.Rule))
			}
			if int(f.Router) >= len(a.Routers) {
				d.fail(fmt.Sprintf("interface router index %d out of range (%d routers)", f.Router, len(a.Routers)))
			}
		}
		a.Ifaces = append(a.Ifaces, f)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, &FormatError{Reason: fmt.Sprintf("%d trailing payload bytes", len(d.b)-d.off)}
	}
	return a, nil
}

// EncodeState serializes the engine's in-flight provenance (per-router
// records, per-interface rules) into an opaque blob for embedding in a
// refinement checkpoint, so a resumed run reproduces the artifact an
// uninterrupted run would have written. Like Encode it is a pure
// function of its inputs.
func EncodeState(routers []Record, ifaces []IfaceRule) []byte {
	p := binary.AppendUvarint(nil, uint64(len(routers)))
	for i := range routers {
		p = appendRecord(p, &routers[i])
	}
	p = binary.AppendUvarint(p, uint64(len(ifaces)))
	for _, r := range ifaces {
		p = append(p, byte(r))
	}
	return p
}

// DecodeState inverts EncodeState into caller-provided slices, whose
// lengths must match the blob's counts (the caller sized them from the
// graph the checkpoint's digests already pinned).
func DecodeState(b []byte, routers []Record, ifaces []IfaceRule) error {
	d := &decoder{b: b}
	n := d.count("provenance router count")
	if d.err == nil && n != len(routers) {
		return &FormatError{Reason: fmt.Sprintf("provenance router count %d does not match graph (%d)", n, len(routers))}
	}
	for i := 0; i < n && d.err == nil; i++ {
		d.record(&routers[i])
	}
	n = d.count("provenance interface count")
	if d.err == nil && n != len(ifaces) {
		return &FormatError{Reason: fmt.Sprintf("provenance interface count %d does not match graph (%d)", n, len(ifaces))}
	}
	for i := 0; i < n && d.err == nil; i++ {
		ifaces[i] = IfaceRule(d.u8())
	}
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return &FormatError{Reason: fmt.Sprintf("%d trailing provenance bytes", len(d.b)-d.off)}
	}
	return nil
}

// WriteFile atomically publishes the artifact at path (write-temp +
// fsync + rename, via ckpt.AtomicWrite), so readers never observe a
// torn artifact.
func WriteFile(path string, a *Artifact) error {
	if err := ckpt.AtomicWrite(path, func(w io.Writer) error { return Encode(w, a) }); err != nil {
		return fmt.Errorf("prov: writing artifact %s: %w", path, err)
	}
	return nil
}

// ReadFile loads and validates the artifact at path.
func ReadFile(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("prov: no artifact at %s (was the run started with provenance enabled?)", path)
		}
		return nil, fmt.Errorf("prov: opening %s: %w", path, err)
	}
	defer f.Close()
	a, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("prov: %s: %w", path, err)
	}
	return a, nil
}

// decoder is a bounds-checked cursor over a payload; the first
// structural violation latches err and subsequent reads are no-ops
// (same discipline as ckpt's decoder).
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(reason string) {
	if d.err == nil {
		d.err = &FormatError{Reason: reason}
	}
}

func (d *decoder) u8() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("payload truncated reading byte")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("malformed varint in " + what)
		return 0
	}
	if n > 1 && d.b[d.off+n-1] == 0 {
		d.fail("non-minimal varint in " + what)
		return 0
	}
	d.off += n
	return v
}

// count reads a non-negative size that must be plausible for the
// payload length.
func (d *decoder) count(what string) int {
	v := d.uvarint(what)
	if v > uint64(len(d.b))+1 {
		d.fail(fmt.Sprintf("implausible %s %d for a %d-byte payload", what, v, len(d.b)))
		return 0
	}
	return int(v)
}

// intv reads a non-negative integer that must fit an int. Unlike count
// it carries no payload-size bound: the value is data (an iteration
// number), not an element count driving an allocation.
func (d *decoder) intv(what string) int {
	v := d.uvarint(what)
	if v > math.MaxInt {
		d.fail(what + " overflows int")
		return 0
	}
	return int(v)
}

// u32v reads a uvarint that must fit a uint32 (an AS number).
func (d *decoder) u32v(what string) uint32 {
	v := d.uvarint(what)
	if v > 1<<32-1 {
		d.fail(what + " overflows uint32")
		return 0
	}
	return uint32(v)
}

// i32v reads a uvarint that must fit a non-negative int32.
func (d *decoder) i32v(what string) int32 {
	v := d.uvarint(what)
	if v > 1<<31-1 {
		d.fail(what + " overflows int32")
		return 0
	}
	return int32(v)
}

func (d *decoder) record(r *Record) {
	r.Rule = Rule(d.u8())
	r.Tie = Tie(d.u8())
	r.Winner = asn.ASN(d.u32v("record winner"))
	r.WinnerVotes = d.i32v("record winner votes")
	r.RunnerUp = asn.ASN(d.u32v("record runner-up"))
	r.RunnerUpVotes = d.i32v("record runner-up votes")
	r.Iter = d.i32v("record iteration")
	if d.err == nil && r.Rule >= NumRules {
		d.fail(fmt.Sprintf("unknown rule %d", r.Rule))
	}
}

func (d *decoder) addr() netip.Addr {
	if d.err != nil {
		return netip.Addr{}
	}
	if d.off+16 > len(d.b) {
		d.fail("payload truncated reading address")
		return netip.Addr{}
	}
	var b [16]byte
	copy(b[:], d.b[d.off:])
	d.off += 16
	return netip.AddrFrom16(b).Unmap()
}

// checkLen rejects a declared element count whose minimum encoding
// could not fit in the remaining payload, before anything allocates.
func (d *decoder) checkLen(n, minBytesPer int, what string) {
	if d.err != nil {
		return
	}
	if n*minBytesPer > len(d.b)-d.off {
		d.fail(fmt.Sprintf("declared %s %d exceeds remaining payload", what, n))
	}
}
