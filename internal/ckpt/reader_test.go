package ckpt

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"net/netip"
	"testing"
)

// readerOps is every Reader primitive as the fuzz target drives it: read
// one value with r (count is the op's minBytesPer), return whether the
// value is the type's zero, and append the value the way an encoder
// would, so the target can hold the reader to "what it accepts
// re-encodes to the bytes it consumed".
var readerOps = []func(r *Reader, count int, p []byte) (zero bool, enc []byte){
	func(r *Reader, _ int, p []byte) (bool, []byte) { v := r.Byte(); return v == 0, append(p, v) },
	func(r *Reader, _ int, p []byte) (bool, []byte) { v := r.Bool("b"); return !v, AppendBool(p, v) },
	func(r *Reader, _ int, p []byte) (bool, []byte) {
		v := r.U64()
		return v == 0, binary.LittleEndian.AppendUint64(p, v)
	},
	func(r *Reader, _ int, p []byte) (bool, []byte) {
		v := r.Uvarint("u")
		return v == 0, binary.AppendUvarint(p, v)
	},
	func(r *Reader, _ int, p []byte) (bool, []byte) {
		v := r.Varint("v")
		return v == 0, binary.AppendVarint(p, v)
	},
	func(r *Reader, _ int, p []byte) (bool, []byte) {
		v := r.Int("i")
		return v == 0, binary.AppendUvarint(p, uint64(v))
	},
	func(r *Reader, _ int, p []byte) (bool, []byte) {
		v := r.U32("u32")
		return v == 0, binary.AppendUvarint(p, uint64(v))
	},
	func(r *Reader, _ int, p []byte) (bool, []byte) {
		v := r.I32("i32")
		return v == 0, binary.AppendUvarint(p, uint64(v))
	},
	func(r *Reader, _ int, p []byte) (bool, []byte) {
		v := r.String("s")
		return v == "", AppendString(p, v)
	},
	func(r *Reader, _ int, p []byte) (bool, []byte) {
		v := r.Blob("blob")
		return v == nil, AppendString(p, string(v))
	},
	func(r *Reader, _ int, p []byte) (bool, []byte) {
		v := r.Addr()
		if !v.IsValid() {
			return true, p
		}
		return false, AppendAddr(p, v)
	},
	func(r *Reader, _ int, p []byte) (bool, []byte) {
		v := r.Addr16()
		if !v.IsValid() {
			return true, p
		}
		b := v.As16()
		return false, append(p, b[:]...)
	},
	func(r *Reader, minBytesPer int, p []byte) (bool, []byte) {
		n := r.Count("n", minBytesPer)
		if left := len(r.b) - r.off; n < 0 || n*minBytesPer > left {
			panic("Count returned a count the remaining payload cannot hold")
		}
		return n == 0, binary.AppendUvarint(p, uint64(n))
	},
}

// FuzzReader drives every Reader primitive over fuzzed bytes in a fuzzed
// order (one op per byte of ops: the primitive, and for Count the
// element size).
//
// Invariants: no read panics or moves the cursor past the payload; Count
// never returns n with n × minBytesPer above what remains; a value read
// without error re-encodes to exactly the bytes it consumed (minimal
// varints, 0/1 booleans, unmapped addresses — one value, one encoding);
// the read that fails returns the zero value, and every read after it
// returns the zero value, consumes nothing and leaves the error as it
// was.
func FuzzReader(f *testing.F) {
	allOps := make([]byte, 0, 2*len(readerOps))
	for i := range readerOps {
		allOps = append(allOps, byte(i), byte(i+len(readerOps)*3))
	}
	f.Add([]byte{}, allOps)
	f.Add([]byte{0x80, 0x00}, []byte{3})                          // overlong uvarint
	f.Add([]byte{0x81, 0x80, 0x00}, []byte{4})                    // overlong signed varint
	f.Add([]byte{0xff, 0x80, 0x80, 0x00, 1, 2, 3}, []byte{12, 8}) // overlong count
	two63 := binary.AppendUvarint(nil, 1<<63)
	for op := range readerOps {
		f.Add(two63, []byte{byte(op)}) // 2^63 as a count, a length, a data value
	}
	f.Add(binary.AppendUvarint(nil, math.MaxUint64), allOps)
	f.Add([]byte{2}, []byte{1})                                // boolean byte 2
	f.Add([]byte{5, 1, 2, 3, 4, 5}, []byte{10})                // address length 5
	f.Add(append([]byte{16}, make([]byte, 15)...), []byte{10}) // address cut short
	f.Add(AppendAddr(nil, netip.MustParseAddr("::ffff:10.0.0.1")), []byte{10, 11})
	// Every truncation of a valid payload, read by the ops that wrote it.
	valid := binary.LittleEndian.AppendUint64(nil, 0xfeed)
	valid = binary.AppendUvarint(valid, 1<<20)
	valid = AppendBool(valid, true)
	valid = binary.AppendUvarint(valid, 2)
	valid = AppendString(valid, "batch-a.jsonl")
	valid = AppendString(valid, "")
	valid = binary.AppendVarint(valid, -5)
	valid = AppendAddr(valid, netip.MustParseAddr("10.0.0.1"))
	valid = AppendAddr(valid, netip.MustParseAddr("2001:db8::1"))
	validOps := []byte{2, 5, 1, 12, 8, 8, 4, 10, 10}
	for n := 0; n <= len(valid); n++ {
		f.Add(valid[:n], validOps)
	}

	f.Fuzz(func(t *testing.T, data, ops []byte) {
		r := NewReader(data, "fuzzed payload")
		for _, op := range ops {
			before, latched := r.off, r.err
			read := readerOps[int(op)%len(readerOps)]
			zero, enc := read(r, 1+int(op)/len(readerOps), nil)
			if r.off < before || r.off > len(data) {
				t.Fatalf("op %d moved the cursor from %d to %d in a %d-byte payload", op, before, r.off, len(data))
			}
			switch {
			case latched != nil:
				if !zero || r.off != before || r.err != latched {
					t.Fatalf("op %d after a latched error: zero=%v, cursor %d→%d, error %v→%v", op, zero, before, r.off, latched, r.err)
				}
			case r.err != nil:
				if !zero {
					t.Fatalf("op %d failed (%v) and still returned a value", op, r.err)
				}
				if r.OK() || r.Finish() != error(r.err) {
					t.Fatalf("op %d: latched %v, but OK()=%v and Finish()=%v", op, r.err, r.OK(), r.Finish())
				}
			case !bytes.Equal(enc, data[before:r.off]):
				t.Fatalf("op %d accepted % x, which re-encodes to % x", op, data[before:r.off], enc)
			}
		}
		if err := r.Finish(); (err == nil) != (r.err == nil && r.off == len(data)) {
			t.Fatalf("Finish() = %v with the cursor at %d of %d and latched error %v", err, r.off, len(data), r.err)
		}
	})
}

// TestFingerprint pins the content fingerprint, one-shot and streamed, to
// FNV-64a (hash/fnv's values): journals, lineages, serving snapshots and
// checkpoints on disk hold them.
func TestFingerprint(t *testing.T) {
	for _, in := range []string{"", "a", "foobar", "batch-2026-08-01.jsonl", string(make([]byte, 300))} {
		h := fnv.New64a()
		h.Write([]byte(in))
		if got, want := Fingerprint([]byte(in)), h.Sum64(); got != want {
			t.Errorf("Fingerprint(%q) = %#x, hash/fnv says %#x", in, got, want)
		}
		// Fed in chunks of every size, the stream is the one-shot value.
		for chunk := 1; chunk <= len(in)+1; chunk++ {
			f := NewFingerprinter()
			for rest := []byte(in); len(rest) > 0; rest = rest[min(chunk, len(rest)):] {
				f.Write(rest[:min(chunk, len(rest))])
			}
			if got, want := f.Sum64(), h.Sum64(); got != want {
				t.Fatalf("Fingerprinter over %q in chunks of %d = %#x, hash/fnv says %#x", in, chunk, got, want)
			}
		}
	}
	if got, want := Fingerprint([]byte("foobar")), uint64(0x85944171f73967e8); got != want {
		t.Errorf("Fingerprint(\"foobar\") = %#x, want the published FNV-64a vector %#x", got, want)
	}
}

// TestReaderFieldNamesDoNotEscape: a decoder that builds a field's name
// at run time (readChanges' "router history index gap") must not pay a
// heap allocation per read for a name only a refusal would print.
func TestReaderFieldNamesDoNotEscape(t *testing.T) {
	payload, what := []byte{0x07, 0x00}, "router history"
	if n := testing.AllocsPerRun(100, func() {
		r := Reader{b: payload}
		if r.U32(what+" index gap") != 7 || r.Count(what+" length", 2) != 0 || r.Finish() != nil {
			t.Fatal("unexpected read")
		}
	}); n != 0 {
		t.Errorf("%v allocations per run, want 0", n)
	}
}
