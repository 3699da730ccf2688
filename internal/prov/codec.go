package prov

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
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
		p = ckpt.AppendBool(p, r.LastHop)
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
// Only Encode's own byte choices are accepted — ckpt.Reader's rules, and
// no unknown flag bits — so an accepted artifact re-encodes to the bytes
// it was read from.
func Decode(r io.Reader) (*Artifact, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("prov: reading artifact: %w", err)
	}
	a, err := decode(data)
	if err != nil {
		return nil, formatError(err)
	}
	return a, nil
}

// formatError turns the wire's refusal (frame or payload) into this
// package's typed one.
func formatError(err error) error {
	var fe *ckpt.FrameError
	if errors.As(err, &fe) {
		return &FormatError{Reason: fe.Reason}
	}
	return err
}

const kind = "bdrmapIT provenance artifact"

func decode(data []byte) (*Artifact, error) {
	payload, err := ckpt.ReadFrame(data, magic, Version, kind)
	if err != nil {
		return nil, err
	}
	d := ckpt.NewReader(payload, kind)
	a := &Artifact{Iterations: d.Int("iterations")}
	flags := d.Byte()
	if flags&^3 != 0 {
		d.Fail("unknown flag bits %#x", flags)
	}
	a.Converged = flags&1 != 0
	a.Interrupted = flags&2 != 0
	a.CycleLength = d.Int("cycle length")
	if n := d.Count("router count", 9); n > 0 {
		a.Routers = make([]RouterRec, n)
	}
	for i := 0; i < len(a.Routers) && d.OK(); i++ {
		rr := &a.Routers[i]
		rr.Annotation = asn.ASN(d.U32("router annotation"))
		rr.LastHop = d.Bool("router last-hop")
		readRecord(d, &rr.Record)
	}
	if n := d.Count("interface count", 20); n > 0 {
		a.Ifaces = make([]Iface, n)
	}
	for i := 0; i < len(a.Ifaces) && d.OK(); i++ {
		f := &a.Ifaces[i]
		f.Addr = d.Addr16()
		f.Origin = asn.ASN(d.U32("interface origin"))
		f.Annotation = asn.ASN(d.U32("interface annotation"))
		f.Router = d.I32("interface router index")
		f.Rule = IfaceRule(d.Byte())
		if f.Rule >= NumIfaceRules {
			d.Fail("unknown interface rule %d", f.Rule)
		}
		if int(f.Router) >= len(a.Routers) {
			d.Fail("interface router index %d out of range (%d routers)", f.Router, len(a.Routers))
		}
	}
	return a, d.Finish()
}

func readRecord(d *ckpt.Reader, r *Record) {
	r.Rule = Rule(d.Byte())
	r.Tie = Tie(d.Byte())
	r.Winner = asn.ASN(d.U32("record winner"))
	r.WinnerVotes = d.I32("record winner votes")
	r.RunnerUp = asn.ASN(d.U32("record runner-up"))
	r.RunnerUpVotes = d.I32("record runner-up votes")
	r.Iter = d.I32("record iteration")
	if r.Rule >= NumRules {
		d.Fail("unknown rule %d", r.Rule)
	}
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
