package core

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/asn"
	"repro/internal/ckpt"
	"repro/internal/faultio"
	"repro/internal/traceroute"
)

// testBinding is the binding the image tests save under; core carries it
// and never reads it.
var testBinding = ImageBinding{
	OptionsFP:  0x0123456789abcdef,
	BaseDigest: 0xfedcba9876543210,
	Lineage:    []ckpt.BatchInfo{{FP: 0xdead, Name: "batch-1.jsonl", Traces: 12}, {FP: 0xbeef}},
}

// imageOf is b's image under testBinding.
func imageOf(t testing.TB, b *Builder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := b.WriteImage(&buf, testBinding); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replayImage decodes data and replays it over e at workers.
func replayImage(t testing.TB, e *testEnv, data []byte, workers int) *Builder {
	t.Helper()
	img, err := DecodeImage(data)
	if err != nil {
		t.Fatalf("an image WriteImage wrote does not decode: %v", err)
	}
	return img.Replay(e.resolver, e.aliases, workers, nil)
}

// imageCorpus is every pool case as one corpus over the pool world —
// aliases, an IXP, IPv6, echo-only interfaces, label upgrades — but for
// the last trace: the third destination AS that voids the last case's
// §4.4 cleanup, which the image must record as observed.
func imageCorpus(t testing.TB) (*testEnv, []*traceroute.Trace) {
	var all []byte
	for _, c := range poolCases {
		all = append(append(all, c.data...), poolEnd)
	}
	traces := decodePoolTraces(all)
	return poolEnv(t), traces[:len(traces)-1]
}

// TestGoldenImage pins the version-1 image: the pool corpus must still
// encode to testdata/builder_v1.img byte for byte, and the file must
// replay to the graph a Builder fed the corpus builds and re-encode to
// itself. Regenerate deliberately with
// `go test ./internal/core -run TestGoldenImage -update`.
func TestGoldenImage(t *testing.T) {
	e, traces := imageCorpus(t)
	b := NewBuilder(e.resolver, e.aliases)
	b.AddTraces(traces)
	want := b.Finish(e.rels)
	got := imageOf(t, b)

	path := filepath.Join("testdata", "builder_v1.img")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden image (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, golden) {
		t.Errorf("WriteImage no longer writes the recorded version-1 bytes:\n got %x\nwant %x", got, golden)
	}
	img, err := DecodeImage(golden)
	if err != nil {
		t.Fatalf("DecodeImage refuses the recorded image: %v", err)
	}
	if img.Traces != len(traces) || img.OptionsFP != testBinding.OptionsFP || img.BaseDigest != testBinding.BaseDigest ||
		len(img.Lineage) != len(testBinding.Lineage) || img.Lineage[0] != testBinding.Lineage[0] {
		t.Errorf("the recorded image decodes to traces %d, binding %+v; want %d, %+v", img.Traces, img.ImageBinding, len(traces), testBinding)
	}
	lb := img.Replay(e.resolver, e.aliases, 1, nil)
	if d := diffGraphs(lb.Finish(e.rels), want, true, true); d != "" {
		t.Errorf("the recorded image replays to another graph: %s", d)
	}
	if again := imageOf(t, lb); !bytes.Equal(again, golden) {
		t.Error("the recorded image, replayed, re-encodes differently")
	}
	dropped := false
	for _, i := range want.Interfaces {
		dropped = dropped || i.droppedDest != asn.None
	}
	if !dropped {
		t.Error("the pool corpus no longer leaves a destination AS removed by the §4.4 cleanup; the image does not pin the observed set")
	}
}

// TestWriteImageNeedsFinish: an image says what a Finish accounted for,
// so a Builder with traces added since has none to give.
func TestWriteImageNeedsFinish(t *testing.T) {
	e, traces := imageCorpus(t)
	b := NewBuilder(e.resolver, e.aliases)
	var buf bytes.Buffer
	if err := b.WriteImage(&buf, testBinding); err == nil {
		t.Error("a Builder that never finished wrote an image")
	}
	b.AddTraces(traces[:3])
	b.Finish(e.rels)
	b.AddTraces(traces[3:4])
	if err := b.WriteImage(&buf, testBinding); err == nil {
		t.Error("a Builder with an unfinished trace wrote an image")
	}
}

// FuzzImageDecode drives the image decoder with arbitrary bytes, as a
// file and as the payload of a well-formed frame, so the fuzzer reaches
// past the CRC into the graph. The seeds are the golden image, its
// truncations and bit flips (faultio's matrix), a stale version, and its
// payload with bytes flipped. DecodeImage never panics and refuses with
// a *ckpt.FrameError; an image it accepts replays, finishes and
// re-encodes to the bytes it was read from.
func FuzzImageDecode(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "builder_v1.img"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, c := range faultio.Matrix(int64(len(golden)), 0x1a6e) {
		if data, err := io.ReadAll(c.Wrap(bytes.NewReader(golden))); err == nil {
			f.Add(data)
		}
	}
	for _, off := range []int{9, len(golden) / 2, len(golden) - 1} {
		flipped := bytes.Clone(golden)
		flipped[off] ^= 1
		f.Add(flipped)
	}
	stale := bytes.Clone(golden)
	stale[len(imageMagic)] = imageVersion + 1
	f.Add(stale)
	payload, err := ckpt.ReadFrame(golden, imageMagic, imageVersion, imageKind)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	for _, off := range []int{0, 16, 20, len(payload) / 3, len(payload) / 2, len(payload) - 1} {
		flipped := bytes.Clone(payload)
		flipped[off] ^= 0x41
		f.Add(flipped)
	}
	e := poolEnv(f)
	check := func(t *testing.T, data []byte) {
		img, err := DecodeImage(data)
		if err != nil {
			var fe *ckpt.FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("refusal %v (%T) is not a *ckpt.FrameError", err, err)
			}
			return
		}
		b := img.Replay(e.resolver, e.aliases, 2, nil)
		b.Finish(e.rels)
		var buf bytes.Buffer
		if err := b.WriteImage(&buf, img.ImageBinding); err != nil {
			t.Fatalf("an accepted image, replayed, does not re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("an accepted image re-encodes differently:\n got %x\nwant %x", buf.Bytes(), data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		var framed bytes.Buffer
		if err := ckpt.WriteFrame(&framed, imageMagic, imageVersion, data); err != nil {
			t.Fatal(err)
		}
		check(t, framed.Bytes())
	})
}
