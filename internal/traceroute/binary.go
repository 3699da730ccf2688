package traceroute

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/netip"
)

// Binary codec: a compact varint-based stream for archived campaigns.
//
//	file   := magic version record*
//	magic  := "BDRT" (4 bytes)
//	version:= u8 (currently 1)
//	record := vpLen:uvarint vp:bytes
//	          src:addr dst:addr stop:u8
//	          nhops:uvarint hop*
//	hop    := addr probeTTL:u8 reply:u8 rtt:f32(le)
//	addr   := len:u8 bytes   (len 0 = invalid/absent, 4 = IPv4, 16 = IPv6)
const (
	binaryMagic   = "BDRT"
	binaryVersion = 1
)

// BinaryWriter streams traces in the compact binary form.
type BinaryWriter struct {
	bw       *bufio.Writer
	scratch  []byte
	wroteHdr bool
}

// NewBinaryWriter returns a writer streaming to w. The header is written
// lazily on the first record so an empty writer produces no output.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{bw: bufio.NewWriterSize(w, 1<<16), scratch: make([]byte, binary.MaxVarintLen64)}
}

func (bw *BinaryWriter) writeUvarint(v uint64) error {
	n := binary.PutUvarint(bw.scratch, v)
	_, err := bw.bw.Write(bw.scratch[:n])
	return err
}

func (bw *BinaryWriter) writeAddr(a netip.Addr) error {
	if !a.IsValid() {
		return bw.bw.WriteByte(0)
	}
	s := a.Unmap().AsSlice()
	if err := bw.bw.WriteByte(byte(len(s))); err != nil {
		return err
	}
	_, err := bw.bw.Write(s)
	return err
}

// Write encodes one trace.
func (bw *BinaryWriter) Write(t *Trace) error {
	if !bw.wroteHdr {
		if _, err := bw.bw.WriteString(binaryMagic); err != nil {
			return err
		}
		if err := bw.bw.WriteByte(binaryVersion); err != nil {
			return err
		}
		bw.wroteHdr = true
	}
	if err := bw.writeUvarint(uint64(len(t.VP))); err != nil {
		return err
	}
	if _, err := bw.bw.WriteString(t.VP); err != nil {
		return err
	}
	if err := bw.writeAddr(t.Src); err != nil {
		return err
	}
	if err := bw.writeAddr(t.Dst); err != nil {
		return err
	}
	if err := bw.bw.WriteByte(byte(t.Stop)); err != nil {
		return err
	}
	if err := bw.writeUvarint(uint64(len(t.Hops))); err != nil {
		return err
	}
	var f32 [4]byte
	for _, h := range t.Hops {
		if err := bw.writeAddr(h.Addr); err != nil {
			return err
		}
		if err := bw.bw.WriteByte(h.ProbeTTL); err != nil {
			return err
		}
		if err := bw.bw.WriteByte(byte(h.Reply)); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(f32[:], math.Float32bits(h.RTTMillis))
		if _, err := bw.bw.Write(f32[:]); err != nil {
			return err
		}
	}
	return nil
}

// Flush flushes buffered output.
func (bw *BinaryWriter) Flush() error { return bw.bw.Flush() }

// ReadBinary streams traces from the binary form, invoking fn for each.
// Like the JSONL reader it delivers only what the heuristics can take:
// a record with an undefined reply type or stop reason, or without a
// destination or a hop address, is an error naming the record and hop.
func ReadBinary(r io.Reader, fn func(*Trace) error) error {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return nil // empty stream
		}
		return fmt.Errorf("traceroute: binary header: %w", err)
	}
	if string(hdr[:4]) != binaryMagic {
		return fmt.Errorf("traceroute: bad magic %q", hdr[:4])
	}
	if hdr[4] != binaryVersion {
		return fmt.Errorf("traceroute: unsupported binary version %d", hdr[4])
	}
	var addrBuf [16]byte // one buffer for every address: a local one would escape per call
	readAddr := func() (netip.Addr, error) {
		n, err := br.ReadByte()
		if err != nil {
			return netip.Addr{}, err
		}
		switch n {
		case 0:
			return netip.Addr{}, nil
		case 4:
			if _, err := io.ReadFull(br, addrBuf[:4]); err != nil {
				return netip.Addr{}, err
			}
			return netip.AddrFrom4([4]byte(addrBuf[:4])), nil
		case 16:
			if _, err := io.ReadFull(br, addrBuf[:]); err != nil {
				return netip.Addr{}, err
			}
			return netip.AddrFrom16(addrBuf), nil
		default:
			return netip.Addr{}, fmt.Errorf("bad address length %d", n)
		}
	}
	var (
		vps   = make(interner)
		vpBuf []byte
		f32   [4]byte
	)
	// readRecord returns (nil, nil) at a clean end of stream.
	readRecord := func() (*Trace, error) {
		vpLen, err := binary.ReadUvarint(br)
		if err == io.EOF {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		if vpLen > 1<<16 {
			return nil, fmt.Errorf("implausible VP name length %d", vpLen)
		}
		if uint64(cap(vpBuf)) < vpLen {
			vpBuf = make([]byte, vpLen)
		}
		vpBuf = vpBuf[:vpLen]
		if _, err := io.ReadFull(br, vpBuf); err != nil {
			return nil, fmt.Errorf("vp: %w", err)
		}
		t := &Trace{VP: vps.intern(vpBuf)}
		if t.Src, err = readAddr(); err != nil {
			return nil, fmt.Errorf("src: %w", err)
		}
		if t.Dst, err = readAddr(); err != nil {
			return nil, fmt.Errorf("dst: %w", err)
		}
		if !t.Dst.IsValid() {
			return nil, errors.New("no destination address")
		}
		stop, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("stop: %w", err)
		}
		if t.Stop = StopReason(stop); !t.Stop.defined() {
			return nil, fmt.Errorf("undefined stop reason %d", stop)
		}
		nhops, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("hop count: %w", err)
		}
		if nhops > 512 {
			return nil, fmt.Errorf("implausible hop count %d", nhops)
		}
		if nhops > 0 {
			t.Hops = make([]Hop, nhops)
		}
		for i := range t.Hops {
			h := &t.Hops[i]
			if h.Addr, err = readAddr(); err != nil {
				return nil, fmt.Errorf("hop %d: addr: %w", i, err)
			}
			if !h.Addr.IsValid() {
				return nil, fmt.Errorf("hop %d: no address", i)
			}
			if h.ProbeTTL, err = br.ReadByte(); err != nil {
				return nil, fmt.Errorf("hop %d: ttl: %w", i, err)
			}
			reply, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("hop %d: reply: %w", i, err)
			}
			if h.Reply = ReplyType(reply); !h.Reply.defined() {
				return nil, fmt.Errorf("hop %d: undefined reply type %d", i, reply)
			}
			if _, err := io.ReadFull(br, f32[:]); err != nil {
				return nil, fmt.Errorf("hop %d: rtt: %w", i, err)
			}
			h.RTTMillis = math.Float32frombits(binary.LittleEndian.Uint32(f32[:]))
		}
		return t, nil
	}
	for record := 1; ; record++ {
		t, err := readRecord()
		if err != nil {
			return fmt.Errorf("traceroute: binary record %d: %w", record, err)
		}
		if t == nil {
			return nil
		}
		if err := fn(t); err != nil {
			return err
		}
	}
}
