package core_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
)

// imageFixture is the Builder image of the small simulated campaign
// (seed 2018, 20 VPs), built at one worker.
func imageFixture(t testing.TB) (*eval.Dataset, []byte) {
	t.Helper()
	ds := parallelDataset(t)
	b := core.NewBuilder(ds.Resolver, ds.Aliases)
	b.Workers = 1
	b.AddTraces(ds.Traces)
	b.Finish(ds.Rels)
	var buf bytes.Buffer
	if err := b.WriteImage(&buf, core.ImageBinding{}); err != nil {
		t.Fatal(err)
	}
	return ds, buf.Bytes()
}

// replayFixture decodes data and replays it at one worker.
func replayFixture(t testing.TB, ds *eval.Dataset, data []byte) *core.Builder {
	img, err := core.DecodeImage(data)
	if err != nil {
		t.Fatal(err)
	}
	return img.Replay(ds.Resolver, ds.Aliases, 1, nil)
}

// TestReplayedBuildersShareNothing: Replay hands the decoded sets to the
// Builder, so one image decoded twice must give two Builders that share
// no memory. Rewriting and growing every destination set and previous
// hop of the first leaves the second's image as it was.
func TestReplayedBuildersShareNothing(t *testing.T) {
	ds, data := imageFixture(t)
	ga := replayFixture(t, ds, data).Finish(ds.Rels)
	b := replayFixture(t, ds, data)
	b.Finish(ds.Rels)
	other := ga.Interfaces[0].Addr
	for _, i := range ga.Interfaces {
		for k := range i.DestASes {
			i.DestASes[k]++
		}
		i.DestASes = append(i.DestASes, 1)
		for _, l := range i.InLinks {
			for k := range l.Prev {
				l.Prev[k].Addr = other
			}
			for k := range l.DestASes {
				l.DestASes[k]++
			}
			l.DestASes = append(l.DestASes, 1)
		}
	}
	var buf bytes.Buffer
	if err := b.WriteImage(&buf, core.ImageBinding{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Error("writing into one replayed Builder changed another replayed from the same bytes")
	}
}

// TestReplayAllocs is the allocation ceiling of DecodeImage and Replay
// at one worker on the fixture: sized from the image's counts, the sets
// cut from shared chunks. It measured 3 036 allocations (the code
// before: 7 092); the ceiling leaves about 10 %.
func TestReplayAllocs(t *testing.T) {
	ds, data := imageFixture(t)
	const ceiling = 3320
	got := testing.AllocsPerRun(5, func() { replayFixture(t, ds, data) })
	t.Logf("DecodeImage + Replay: %.0f allocations for a %d-byte image", got, len(data))
	if got > ceiling {
		t.Errorf("DecodeImage + Replay made %.0f allocations, above the ceiling of %d", got, ceiling)
	}
}

func BenchmarkReplay(b *testing.B) {
	ds, data := imageFixture(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchBuilder = replayFixture(b, ds, data)
	}
}

// benchBuilder keeps the compiler from discarding a replay.
var benchBuilder *core.Builder
