package prov

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/faultio"
)

// FuzzDecode drives the artifact decoder with arbitrary bytes. Seeds are
// encodings of small artifacts plus the faultio fault matrix over each —
// truncations, garbage windows, short reads — so a brief run revisits
// what a torn or bit-rotted artifact file looks like. A mutated frame
// almost never survives the CRC, so every input is also tried as a bare
// payload inside a frame the target writes itself; the bare payloads of
// the seed artifacts are seeds too.
//
// Invariants: Decode never panics; every rejection is a *FormatError;
// every accepted input re-encodes to the same bytes (one artifact, one
// encoding — what lets artifact comparison be a byte comparison).
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(magic))
	for _, a := range []*Artifact{
		sampleArtifact(),
		{Iterations: 50, Interrupted: true, CycleLength: 3, Routers: []RouterRec{{Record: Record{Rule: RuleKeepPrevious}}}},
		{},
	} {
		var valid bytes.Buffer
		if err := Encode(&valid, a); err != nil {
			f.Fatal(err)
		}
		f.Add(valid.Bytes())
		f.Add(appendPayload(nil, a))
		for _, c := range faultio.Matrix(int64(valid.Len()), 0x9a0f) {
			data, err := io.ReadAll(c.Wrap(bytes.NewReader(valid.Bytes())))
			if err != nil {
				continue // read-error faults never yield a full byte stream
			}
			f.Add(data)
		}
	}

	check := func(t *testing.T, data []byte) {
		a, err := Decode(bytes.NewReader(data))
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("rejection is not a *FormatError: %v", err)
			}
			return
		}
		var again bytes.Buffer
		if err := Encode(&again, a); err != nil {
			t.Fatalf("accepted artifact failed to re-encode: %v", err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("accepted input re-encodes differently:\n in  %x\n out %x", data, again.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		var framed bytes.Buffer
		if err := ckpt.WriteFrame(&framed, magic, Version, data); err != nil {
			t.Fatal(err)
		}
		check(t, framed.Bytes())
	})
}
