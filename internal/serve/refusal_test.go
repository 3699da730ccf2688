package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/faultio"
)

// encodeSnapshot returns the raw artifact bytes for a salted snapshot.
func encodeSnapshot(t testing.TB, salt uint32) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, makeSnapshot(salt)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reframe rebuilds a valid envelope (correct length, correct CRC)
// around payload, so a test can corrupt the payload's *content* while
// keeping the envelope checks green — exercising the validation layers
// beneath the CRC.
func reframe(t testing.TB, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ckpt.WriteFrame(&buf, magic, Version, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// payloadOf strips the envelope (8 magic + 1 version + 4 length header,
// 4 CRC trailer) from a valid artifact.
func payloadOf(data []byte) []byte {
	return data[13 : len(data)-4]
}

// TestSnapshotRefusals is the table of ways an artifact can be bad and
// the typed refusal each must produce — while a server already serving
// a good snapshot keeps answering from it, untouched. This is the
// validate-before-publish contract end to end: the corrupt file hits
// the same path a real reload takes (Server.Reload → Open), and the
// test proves both the refusal type and the non-disturbance of the
// published generation.
func TestSnapshotRefusals(t *testing.T) {
	valid := encodeSnapshot(t, 1)

	wantFormat := func(t *testing.T, err error) {
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("error is %T, want *FormatError: %v", err, err)
		}
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T) []byte
		check   func(t *testing.T, err error)
	}{
		{
			"truncated mid-payload",
			func(t *testing.T) []byte { return valid[:len(valid)*2/3] },
			wantFormat,
		},
		{
			"truncated to empty",
			func(t *testing.T) []byte { return nil },
			wantFormat,
		},
		{
			"crc corrupt (bit rot mid-payload)",
			func(t *testing.T) []byte {
				b := bytes.Clone(valid)
				b[len(b)/2] ^= 0x40
				return b
			},
			wantFormat,
		},
		{
			"wrong magic",
			func(t *testing.T) []byte {
				b := bytes.Clone(valid)
				b[0] ^= 0xff
				return b
			},
			wantFormat,
		},
		{
			"wrong version",
			func(t *testing.T) []byte {
				b := bytes.Clone(valid)
				b[8] = Version + 1
				return b
			},
			func(t *testing.T, err error) {
				wantFormat(t, err)
				if want := "unsupported format version"; !contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			},
		},
		{
			// The envelope is perfectly intact here — length and CRC both
			// verify — but the stamped content fingerprint disagrees with
			// the payload it frames. Only the fingerprint discipline
			// catches this class (a writer bug or a hand-assembled file).
			"fingerprint mismatch under valid crc",
			func(t *testing.T) []byte {
				payload := bytes.Clone(payloadOf(valid))
				binary.LittleEndian.PutUint64(payload, binary.LittleEndian.Uint64(payload)+1)
				return reframe(t, payload)
			},
			func(t *testing.T, err error) {
				var me *MismatchError
				if !errors.As(err, &me) {
					t.Fatalf("error is %T, want *MismatchError: %v", err, err)
				}
			},
		},
		{
			// Envelope and fingerprint both valid, and the body says what
			// Encode would say — in a form Encode would not choose: the
			// source-length uvarint that opens the body, padded out.
			"overlong varint under valid fingerprint",
			func(t *testing.T) []byte {
				body := payloadOf(valid)[8:]
				body = append([]byte{body[0] | 0x80, 0x00}, body[1:]...)
				return reframe(t, append(binary.LittleEndian.AppendUint64(nil, ckpt.Fingerprint(body)), body...))
			},
			func(t *testing.T, err error) {
				wantFormat(t, err)
				if want := "non-minimal varint"; !contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			},
		},
		{
			// Envelope and fingerprint both valid, but the decoded tables
			// violate a structural invariant: the payload is re-stamped
			// over content whose interface table is unsorted.
			"invariant violation under valid fingerprint",
			func(t *testing.T) []byte {
				bad := makeSnapshot(1)
				bad.Ifaces[0], bad.Ifaces[1] = bad.Ifaces[1], bad.Ifaces[0]
				var buf bytes.Buffer
				// Encode validates nothing; WriteFile is the guarded
				// entry. Encoding the unsorted tables directly yields a
				// well-framed, correctly fingerprinted, invalid snapshot.
				if err := Encode(&buf, bad); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			},
			func(t *testing.T, err error) {
				var ve *ValidationError
				if !errors.As(err, &ve) {
					t.Fatalf("error is %T, want *ValidationError: %v", err, err)
				}
			},
		},
	}

	dir := t.TempDir()
	path, want := writeSnapshot(t, dir, 1)
	srv := New(Config{SnapshotPath: path})
	if err := srv.Load(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	askOne := func(t *testing.T) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/lookup?ip=10.0.0.2")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("lookup status %d: %s", resp.StatusCode, body)
		}
		wantFP := fmt.Sprintf("%q", fmt.Sprintf("%#x", want.Fingerprint()))
		if !bytes.Contains(body, []byte(wantFP)) {
			t.Fatalf("response no longer carries the published fingerprint %s: %s", wantFP, body)
		}
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			genBefore, fpBefore := srv.Generation()
			if err := os.WriteFile(path, tc.corrupt(t), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := srv.Reload()
			if err == nil {
				t.Fatal("Reload accepted a corrupt artifact")
			}
			tc.check(t, err)
			if gen, fp := srv.Generation(); gen != genBefore || fp != fpBefore {
				t.Errorf("published snapshot disturbed by refused reload: generation %d→%d, fingerprint %#x→%#x",
					genBefore, gen, fpBefore, fp)
			}
			askOne(t)
		})
	}

	// After the whole gauntlet, a good artifact still swaps in.
	if err := os.WriteFile(path, encodeSnapshot(t, 2), 0o644); err != nil {
		t.Fatal(err)
	}
	gen, err := srv.Reload()
	if err != nil {
		t.Fatalf("valid reload after refusals failed: %v", err)
	}
	if gen != 2 {
		t.Errorf("generation after one successful swap = %d, want 2", gen)
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }

// FuzzDecode drives the snapshot opener with arbitrary bytes, seeded
// from a valid artifact and the standard faultio corruption matrix
// applied to it. The contract under fuzzing: Decode never panics, and
// anything it accepts passes Validate (i.e. nothing structurally
// invalid can ever reach a published pointer).
func FuzzDecode(f *testing.F) {
	valid := encodeSnapshot(f, 1)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:13])
	for _, c := range faultio.Matrix(int64(len(valid)), 7) {
		data, err := io.ReadAll(c.Wrap(bytes.NewReader(valid)))
		if err != nil && c.Corrupting {
			continue // read-error faults produce no byte stream to seed
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("Decode accepted a snapshot that fails Validate: %v", verr)
		}
		s.Index()
		// SelfCheck may legitimately reject (e.g. empty tables); it must
		// simply not panic.
		_ = s.SelfCheck()
	})
}
