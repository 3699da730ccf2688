package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"

	"repro/internal/ckpt"
)

// Version is the serving-snapshot format version; Open refuses any
// other. Serving annotations reinterpreted across format revisions
// would be answered confidently and wrongly — worse than refusing.
const Version = 1

// magic identifies a bdrmapIT serving snapshot (8 bytes, sibling of
// ckpt's "BMITCKPT" and prov's "BMITPROV").
const magic = "BMITSRVE"

// kind is the artifact name used in envelope diagnostics.
const kind = "bdrmapIT serving snapshot"

// FormatError reports a snapshot artifact that failed structural
// validation: wrong magic or version, bad length, failed CRC, or a
// malformed payload. Corruption is detected here — at open time —
// rather than surfacing as wrong answers to live queries.
type FormatError struct {
	Reason string
}

func (e *FormatError) Error() string {
	return "serve: invalid snapshot artifact: " + e.Reason
}

// MismatchError reports an artifact whose envelope was intact but whose
// stamped content fingerprint disagrees with the payload it frames — a
// writer bug, a hand-assembled artifact, or corruption that collided
// the CRC. The snapshot is refused: serving annotations that do not
// match their claimed identity would poison every generation-
// consistency check downstream.
type MismatchError struct {
	Want, Got uint64
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("serve: snapshot fingerprint mismatch: artifact claims %#x but content hashes to %#x; refusing to publish", e.Want, e.Got)
}

// Encode writes s to w: the shared artifact envelope (ckpt.WriteFrame)
// around a payload whose first 8 bytes are the FNV-64a fingerprint of
// everything after them. Encoding is a pure function of s's exported
// tables (canonical order enforced via SortTables by builders), so two
// identical runs produce byte-identical snapshots and fingerprint
// equality means table equality.
func Encode(w io.Writer, s *Snapshot) error {
	if s == nil {
		return errors.New("serve: nil snapshot")
	}
	body := appendPayload(nil, s)
	s.fingerprint = ckpt.Fingerprint(body)
	payload := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+len(body)), s.fingerprint)
	payload = append(payload, body...)
	return ckpt.WriteFrame(w, magic, Version, payload)
}

func appendPayload(p []byte, s *Snapshot) []byte {
	p = ckpt.AppendString(p, s.Source)
	p = binary.LittleEndian.AppendUint64(p, s.AnnDigest)
	p = binary.AppendUvarint(p, uint64(len(s.Routers)))
	for _, as := range s.Routers {
		p = binary.AppendUvarint(p, uint64(as))
	}
	p = binary.AppendUvarint(p, uint64(len(s.Ifaces)))
	for i := range s.Ifaces {
		f := &s.Ifaces[i]
		p = ckpt.AppendAddr(p, f.Addr)
		p = binary.AppendUvarint(p, uint64(f.Router))
		p = binary.AppendUvarint(p, uint64(f.ConnAS))
	}
	p = binary.AppendUvarint(p, uint64(len(s.Links)))
	for i := range s.Links {
		l := &s.Links[i]
		p = ckpt.AppendAddr(p, l.FarAddr)
		p = binary.AppendUvarint(p, uint64(l.NearAS))
		p = binary.AppendUvarint(p, uint64(l.FarAS))
		var lb byte
		if len(l.Label) > 0 {
			lb = l.Label[0]
		}
		p = append(p, lb)
	}
	p = binary.AppendUvarint(p, uint64(len(s.Prefixes)))
	for i := range s.Prefixes {
		pr := &s.Prefixes[i]
		p = ckpt.AppendAddr(p, pr.Prefix.Addr())
		p = append(p, byte(pr.Prefix.Bits()))
		p = binary.AppendUvarint(p, uint64(pr.Origin))
		p = append(p, byte(pr.Kind))
	}
	return p
}

// Decode reads one snapshot from data, validating the envelope, the
// content fingerprint, the payload structure, and (via Validate) the
// table invariants. Structural failures return a *FormatError,
// fingerprint disagreement a *MismatchError, and invariant violations a
// *ValidationError; Decode never panics on corrupt input. The returned
// snapshot is not yet indexed — Open does that.
func Decode(data []byte) (*Snapshot, error) {
	s, err := decode(data)
	if err != nil {
		var fe *ckpt.FrameError
		if errors.As(err, &fe) {
			return nil, &FormatError{Reason: fe.Reason}
		}
		return nil, err
	}
	return s, nil
}

func decode(data []byte) (*Snapshot, error) {
	payload, err := ckpt.ReadFrame(data, magic, Version, kind)
	if err != nil {
		return nil, err
	}
	d := ckpt.NewReader(payload, kind)
	s := &Snapshot{fingerprint: d.U64()}
	if !d.OK() {
		return nil, d.Finish()
	}
	if got := ckpt.Fingerprint(payload[8:]); got != s.fingerprint {
		return nil, &MismatchError{Want: s.fingerprint, Got: got}
	}
	s.Source = d.String("source")
	s.AnnDigest = d.U64()
	if n := d.Count("router count", 1); n > 0 {
		s.Routers = make([]uint32, n)
	}
	for i := 0; i < len(s.Routers) && d.OK(); i++ {
		s.Routers[i] = d.U32("router AS")
	}
	if n := d.Count("interface count", 7); n > 0 {
		s.Ifaces = make([]Iface, n)
	}
	for i := 0; i < len(s.Ifaces) && d.OK(); i++ {
		s.Ifaces[i] = Iface{
			Addr:   d.Addr(),
			Router: d.U32("interface router index"),
			ConnAS: d.U32("interface connected AS"),
		}
	}
	if n := d.Count("link count", 8); n > 0 {
		s.Links = make([]Link, n)
	}
	for i := 0; i < len(s.Links) && d.OK(); i++ {
		s.Links[i] = Link{
			FarAddr: d.Addr(),
			NearAS:  d.U32("link near AS"),
			FarAS:   d.U32("link far AS"),
			Label:   string(rune(d.Byte())),
		}
	}
	if n := d.Count("prefix count", 8); n > 0 {
		s.Prefixes = make([]Prefix, n)
	}
	for i := 0; i < len(s.Prefixes) && d.OK(); i++ {
		a, bits := d.Addr(), int(d.Byte())
		pr := &s.Prefixes[i]
		pr.Origin = d.U32("prefix origin AS")
		pr.Kind = PrefixKind(d.Byte())
		pr.Prefix = netip.PrefixFrom(a, bits)
		if !pr.Prefix.IsValid() {
			d.Fail("invalid prefix %s/%d", a, bits)
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// WriteFile atomically publishes the snapshot at path (write-temp +
// fsync + rename via ckpt.AtomicWrite), so a daemon re-opening the path
// mid-write sees either the complete old artifact or the complete new
// one — the producer half of the hot-swap contract.
func WriteFile(path string, s *Snapshot) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if err := ckpt.AtomicWrite(path, func(w io.Writer) error { return Encode(w, s) }); err != nil {
		return fmt.Errorf("serve: writing snapshot %s: %w", path, err)
	}
	return nil
}

// Open loads, validates, self-checks, and indexes the snapshot at
// path: the one entry point a server uses, so nothing unvalidated can
// reach the published pointer. Failures are typed — *FormatError for
// structural corruption, *MismatchError for fingerprint disagreement,
// *ValidationError for invariant or self-check failures — and the
// caller's currently published snapshot is never touched.
func Open(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: reading snapshot %s: %w", path, err)
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("serve: %s: %w", path, err)
	}
	s.Index()
	if err := s.SelfCheck(); err != nil {
		return nil, fmt.Errorf("serve: %s: %w", path, err)
	}
	return s, nil
}
