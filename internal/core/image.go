package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/netip"

	"repro/internal/alias"
	"repro/internal/arena"
	"repro/internal/asn"
	"repro/internal/ckpt"
	"repro/internal/ip2as"
	"repro/internal/obs"
)

// A Builder image is what traces contributed to a Builder, saved so that
// a later process can rebuild the Builder without the traces (DESIGN
// §16). It holds observations only: every interface with its echo-only
// flag and its destination ASes as observed, every link with its label,
// previous hops and destination ASes, and the trace count. What the
// resolver, the alias sets and the relationships derive from them —
// origins, routers, the §4.4 cleanup, last hops, caches, statistics — is
// derived again when the image is replayed. Interfaces are listed in
// address order, the graph's own, and each interface's in-links in the
// order the traces created them, so an image is a function of the corpus
// and its order alone, however the corpus was cut into appends. An
// address that never became an interface is not kept: a later trace
// interns and resolves it again, to the same result.
//
//	payload  := optionsFP:u64 baseDigest:u64 lineage traces:uvarint
//	            n:uvarint addr×n iface×n
//	lineage  := count:uvarint (fp:u64 name:string traces:uvarint)×count
//	addr     := len:uvarint netip.Addr.MarshalBinary   (ascending)
//	iface    := echoOnly:bool dests inLinks:uvarint link×inLinks
//	link     := label:u8 prevs:uvarint prevPos:uvarint×prevs dests
//	dests    := count:uvarint step:uvarint×count      (each AS less the one before)
//
// A position is an interface's index in the address order. A link's
// source router is the router of its first previous hop.
const (
	imageMagic   = "BMITBLDR"
	imageVersion = 1
	imageKind    = "bdrmapIT builder image"
)

// ImageBinding is what an image was saved under. Core writes it and reads
// it back; comparing it with the run at hand is the caller's business.
type ImageBinding struct {
	// OptionsFP is the options fingerprint of the run the image was saved
	// beside (ckpt.State.OptionsFP).
	OptionsFP uint64
	// BaseDigest is the digest of the inputs the traces started from, and
	// Lineage the batches appended since, in order.
	BaseDigest uint64
	Lineage    []ckpt.BatchInfo
}

// Image is a decoded Builder image, checked and not yet replayed.
type Image struct {
	ImageBinding
	// Traces is how many traces the saved Builder had added.
	Traces int
	ifaces []imageIface
}

// imageIface is one interface of an image and the links into it.
type imageIface struct {
	addr  netip.Addr
	echo  bool
	dests asn.SmallSet
	in    []imageLink
}

// imageLink is one link of an image; prev holds positions.
type imageLink struct {
	label LinkLabel
	prev  []int
	dests asn.SmallSet
}

// WriteImage writes the image of b under bind. Every trace b has added
// must have been accounted for by a Finish.
func (b *Builder) WriteImage(w io.Writer, bind ImageBinding) error {
	g := b.graph
	if g == nil || b.traces != g.Stats.Traces {
		return fmt.Errorf("core: builder image: traces were added since the last Finish")
	}
	p := binary.LittleEndian.AppendUint64(nil, bind.OptionsFP)
	p = binary.LittleEndian.AppendUint64(p, bind.BaseDigest)
	p = binary.AppendUvarint(p, uint64(len(bind.Lineage)))
	for _, bi := range bind.Lineage {
		p = binary.LittleEndian.AppendUint64(p, bi.FP)
		p = ckpt.AppendString(p, bi.Name)
		p = binary.AppendUvarint(p, uint64(bi.Traces))
	}
	p = binary.AppendUvarint(p, uint64(b.traces))
	p = binary.AppendUvarint(p, uint64(len(g.Interfaces)))
	for _, i := range g.Interfaces {
		a, err := i.Addr.MarshalBinary()
		if err != nil {
			return err
		}
		p = ckpt.AppendString(p, string(a))
	}
	var observed asn.SmallSet
	for _, i := range g.Interfaces {
		p = ckpt.AppendBool(p, i.EchoOnly)
		observed = append(observed[:0], i.DestASes...)
		if i.droppedDest != asn.None {
			observed.Add(i.droppedDest)
		}
		p = appendDests(p, observed)
		p = binary.AppendUvarint(p, uint64(len(i.InLinks)))
		for _, l := range i.InLinks {
			p = append(p, byte(l.Label))
			p = binary.AppendUvarint(p, uint64(len(l.Prev)))
			for _, ph := range l.Prev {
				p = binary.AppendUvarint(p, uint64(g.Interface(ph.Addr).pos))
			}
			p = appendDests(p, l.DestASes)
		}
	}
	return ckpt.WriteFrame(w, imageMagic, imageVersion, p)
}

func appendDests(p []byte, s asn.SmallSet) []byte {
	p = binary.AppendUvarint(p, uint64(len(s)))
	prev := asn.None
	for _, a := range s {
		p = binary.AppendUvarint(p, uint64(a-prev))
		prev = a
	}
	return p
}

// DecodeImage checks an image end to end — frame, binding and graph —
// and returns it ready to replay. Any violation is a *ckpt.FrameError;
// an image it accepts re-encodes, replayed and finished, to data.
func DecodeImage(data []byte) (*Image, error) {
	payload, err := ckpt.ReadFrame(data, imageMagic, imageVersion, imageKind)
	if err != nil {
		return nil, err
	}
	r := ckpt.NewReader(payload, imageKind)
	img := &Image{ImageBinding: ImageBinding{OptionsFP: r.U64(), BaseDigest: r.U64()}}
	img.Lineage = make([]ckpt.BatchInfo, r.Count("lineage length", 10))
	for k := range img.Lineage {
		bi := &img.Lineage[k]
		bi.FP, bi.Name, bi.Traces = r.U64(), r.String("batch name"), r.Int("batch traces")
	}
	img.Traces = r.Int("trace count")
	img.ifaces = make([]imageIface, r.Count("interface count", 8))
	for k := range img.ifaces {
		a := &img.ifaces[k].addr
		if err := a.UnmarshalBinary(r.Bytes("address")); err != nil || !a.IsValid() || a.Is4In6() || k > 0 && a.Compare(img.ifaces[k-1].addr) <= 0 {
			r.Fail("interface %d: %v is not an unmapped address above the one before", k, *a)
			return nil, r.Finish()
		}
	}
	// The links, positions and sets are cut from shared chunks: an image
	// holds several per interface.
	var (
		links arena.Slab[imageLink]
		prevs arena.Slab[int]
		dests arena.Slab[asn.ASN]
	)
	for k := range img.ifaces {
		ri := &img.ifaces[k]
		ri.echo = r.Bool("echo-only")
		ri.dests = readDests(r, &dests)
		ri.in = links.Take(r.Count("in-link count", 3))
		for j := range ri.in {
			rl := &ri.in[j]
			if rl.label = LinkLabel(r.Byte()); rl.label > LabelNexthop {
				r.Fail("interface %d link %d: label %d", k, j, rl.label)
			}
			rl.prev = prevs.Take(r.Count("previous-hop count", 1))
			if len(rl.prev) == 0 {
				r.Fail("interface %d link %d has no previous hop", k, j)
			}
			for h := range rl.prev {
				pos := r.Int("previous-hop position")
				if pos >= len(img.ifaces) || h > 0 && pos <= rl.prev[h-1] {
					r.Fail("interface %d link %d: previous hop %d at position %d", k, j, h, pos)
				}
				rl.prev[h] = pos
			}
			rl.dests = readDests(r, &dests)
		}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return img, nil
}

// readDests reads a destination-AS set as appendDests writes it, into a
// slice cut from slab.
func readDests(r *ckpt.Reader, slab *arena.Slab[asn.ASN]) asn.SmallSet {
	s := asn.SmallSet(slab.Take(r.Count("destination AS count", 1)))
	var a uint64
	for k := range s {
		step := r.U32("destination AS step")
		if a += uint64(step); step == 0 || a > math.MaxUint32 {
			r.Fail("destination AS set is not ascending")
			return nil
		}
		s[k] = asn.ASN(a)
	}
	return s
}

// Replay rebuilds the Builder the image was saved from, over resolver and
// aliases, through the Builder's own constructors: the interfaces in
// address order, then the links into each. Its traces are added and not
// yet finished — the caller adds more and finishes, and the graph is the
// one a Builder fed the whole corpus builds. workers and rec are the
// Builder's Workers and Rec.
//
// Replay consumes the image: the Builder is sized from its counts and
// takes its decoded destination sets as its own, so an image replays
// once. Decode the bytes again for a second Builder.
func (img *Image) Replay(resolver *ip2as.Resolver, aliases *alias.Sets, workers int, rec *obs.Recorder) *Builder {
	ph := rec.Phase("replay-image")
	defer ph.End()
	nlinks := 0
	for k := range img.ifaces {
		nlinks += len(img.ifaces[k].in)
	}
	b := newBuilder(resolver, aliases, len(img.ifaces), nlinks)
	b.Workers, b.Rec = workers, rec
	for k := range img.ifaces {
		b.intern(img.ifaces[k].addr)
	}
	if len(b.newAddrs) > 0 {
		b.resolveNew(1)
	}
	// Addresses are interned in image order, so position k is ID k+1.
	for k := range img.ifaces {
		ri := &img.ifaces[k]
		i := b.newIface(uint32(k+1), ri.addr)
		i.EchoOnly, i.DestASes = ri.echo, ri.dests
	}
	var prevs arena.Slab[PrevHop]
	for k := range img.ifaces {
		to := b.tab[k+1].iface
		for _, rl := range img.ifaces[k].in {
			from := b.tab[rl.prev[0]+1].iface.Router
			l := b.newLink(linkKey(from, uint32(k+1)), from, to, rl.label)
			l.Prev = prevs.Take(len(rl.prev))
			for h, pos := range rl.prev {
				pi := b.tab[pos+1].iface
				l.Prev[h] = PrevHop{pi.Addr, pi.Origin}
			}
			l.DestASes = rl.dests
		}
	}
	b.traces = img.Traces
	ph.Note("interfaces", int64(len(img.ifaces)))
	return b
}
