package traceroute_test

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"repro/internal/topo"
	"repro/internal/traceroute"
)

// loaderCorpus is a simulated campaign (small topology, 8 VPs) in both
// serializations, generated once for the loader benchmarks.
var loaderCorpus = sync.OnceValues(func() (jsonl, bin []byte) {
	in, err := topo.Generate(topo.SmallConfig(1))
	if err != nil {
		panic(err)
	}
	var jbuf, bbuf bytes.Buffer
	jw, bw := traceroute.NewJSONLWriter(&jbuf), traceroute.NewBinaryWriter(&bbuf)
	for _, t := range in.RunCampaign(in.SelectVPs(8, nil), in.Targets()) {
		if err := jw.Write(t); err != nil {
			panic(err)
		}
		if err := bw.Write(t); err != nil {
			panic(err)
		}
	}
	if err := jw.Flush(); err != nil {
		panic(err)
	}
	if err := bw.Flush(); err != nil {
		panic(err)
	}
	return jbuf.Bytes(), bbuf.Bytes()
})

var benchTraces []*traceroute.Trace

func BenchmarkReadJSONL(b *testing.B) {
	corpus, _ := loaderCorpus()
	b.SetBytes(int64(len(corpus)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTraces = benchTraces[:0]
		if _, err := traceroute.ReadJSONLStats(bytes.NewReader(corpus), func(t *traceroute.Trace) error {
			benchTraces = append(benchTraces, t)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadBinary(b *testing.B) {
	_, corpus := loaderCorpus()
	b.SetBytes(int64(len(corpus)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTraces = benchTraces[:0]
		if err := traceroute.ReadBinary(bytes.NewReader(corpus), func(t *traceroute.Trace) error {
			benchTraces = append(benchTraces, t)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteJSONL(b *testing.B) {
	corpus, _ := loaderCorpus()
	var traces []*traceroute.Trace
	if _, err := traceroute.ReadJSONLStats(bytes.NewReader(corpus), func(t *traceroute.Trace) error {
		traces = append(traces, t)
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(corpus)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := traceroute.NewJSONLWriter(io.Discard)
		for _, t := range traces {
			if err := w.Write(t); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}
