package asrel_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/asn"
	"repro/internal/asrel"
	"repro/internal/topo"
)

// rungPaths returns the AS paths of rung M's simulated Internet (≈ 3.4k
// ASes), the largest the tests build.
func rungPaths(b *testing.B) [][]asn.ASN {
	r, err := topo.LadderRung("M", 2018)
	if err != nil {
		b.Fatal(err)
	}
	in, err := topo.Generate(r.Cfg)
	if err != nil {
		b.Fatal(err)
	}
	return in.ASPaths()
}

// benchGraph and benchCones keep the compiler from discarding the work.
var (
	benchGraph *asrel.Graph
	benchCones int
)

// BenchmarkInfer times relationship inference over rung M's AS paths.
func BenchmarkInfer(b *testing.B) {
	paths := rungPaths(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGraph = asrel.Infer(paths)
	}
}

// BenchmarkAllCones times the customer cone of every AS of rung M's
// inferred graph, from an empty cone cache each time: re-adding an edge
// the graph already holds leaves it as it was and empties the cache.
func BenchmarkAllCones(b *testing.B) {
	g := asrel.Infer(rungPaths(b))
	ases := g.ASes()
	var p, c asn.ASN
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		b.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if _, err := fmt.Sscanf(line, "%d|%d|-1", &p, &c); err == nil {
			break
		}
	}
	if !g.IsProvider(p, c) {
		b.Fatal("no provider-customer edge in the graph")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AddP2C(p, c)
		for _, a := range ases {
			benchCones += g.ConeSize(a)
		}
	}
}
