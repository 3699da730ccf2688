package ckpt

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/faultio"
	"repro/internal/obs"
)

// FuzzDecode drives the checkpoint decoder with arbitrary bytes. The
// seed corpus reuses the faultio fault matrix over a valid encoding —
// truncations, garbage windows, short reads — plus a stale version
// byte, so even a brief run revisits the corruption classes a crashed
// or bit-rotted checkpoint file actually exhibits, and a version-3 file,
// so it reaches the branch that reads one.
//
// Invariants: Decode never panics and never hangs; when it accepts an
// input, the resulting State re-encodes and decodes to an identical
// State (the format is unambiguous for every accepted file).
func FuzzDecode(f *testing.F) {
	var valid bytes.Buffer
	err := Encode(&valid, &State{
		OptionsFP:   1,
		InputDigest: 2,
		GraphDigest: 3,
		Iteration:   4,
		Converged:   true,
		CycleLength: 1,
		Routers:     []uint32{100, 200, 300},
		Ifaces:      []uint32{100, 200},
		Trace: []obs.Row{
			{"iteration": 1, "routers_changed": 3},
			{"iteration": 2, "routers_changed": -1},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte{})
	f.Add([]byte("BMITCKPT"))

	for _, c := range faultio.Matrix(int64(valid.Len()), 0xc4e7) {
		data, err := io.ReadAll(c.Wrap(bytes.NewReader(valid.Bytes())))
		if err != nil {
			continue // read-error faults never yield a full byte stream
		}
		f.Add(data)
	}
	stale := append([]byte(nil), valid.Bytes()...)
	stale[8] = Version + 1
	f.Add(stale)
	f.Add(unhex(f, goldenV3)) // the version-3 branch

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejection is always legitimate for fuzzed bytes
		}
		var buf bytes.Buffer
		if err := Encode(&buf, st); err != nil {
			t.Fatalf("accepted state failed to re-encode: %v", err)
		}
		again, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded state failed to decode: %v", err)
		}
		var check bytes.Buffer
		if err := Encode(&check, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), check.Bytes()) {
			t.Fatal("accepted state does not round-trip to stable bytes")
		}
	})
}
