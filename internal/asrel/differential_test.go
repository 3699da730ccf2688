package asrel_test

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/asn"
	"repro/internal/asrel"
	"repro/internal/topo"
)

// sameGraph fails unless g answers every query as o does: the AS list,
// the edge count and the serial-1 bytes; each AS's providers, customers,
// peers, customer cone and cone size (plus asn.None and an AS the graph
// does not hold); the pair predicates over each AS's neighbours and a
// few random others; and SmallestCone and LargestCone over random
// candidate lists, duplicates and absent ASes included.
func sameGraph(t *testing.T, g *asrel.Graph, o *oracleGraph, rng *rand.Rand) {
	t.Helper()
	ases := g.ASes()
	if want := o.ASes(); !slices.Equal(ases, want) {
		t.Fatalf("ASes: %d, the oracle %d", len(ases), len(want))
	}
	if g.NumEdges() != o.NumEdges() {
		t.Fatalf("NumEdges: %d, the oracle %d", g.NumEdges(), o.NumEdges())
	}
	var got, want bytes.Buffer
	if err := g.Write(&got); err != nil {
		t.Fatal(err)
	}
	if err := o.Write(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Write: %d bytes differ from the oracle's %d", got.Len(), want.Len())
	}
	absent := asn.ASN(1)
	if len(ases) > 0 {
		absent = ases[len(ases)-1] + 1
	}
	probe := append(slices.Clone(ases), asn.None, absent)
	for _, a := range probe {
		for _, q := range []struct {
			name      string
			got, want []asn.ASN
		}{
			{"Providers", g.Providers(a), o.Providers(a).Sorted()},
			{"Customers", g.Customers(a), o.Customers(a).Sorted()},
			{"Peers", g.Peers(a), o.Peers(a).Sorted()},
			{"CustomerCone", g.CustomerCone(a), o.CustomerCone(a).Sorted()},
		} {
			if !slices.Equal(q.got, q.want) {
				t.Fatalf("%s(%v) = %v, the oracle %v", q.name, a, q.got, q.want)
			}
		}
		if g.ConeSize(a) != o.ConeSize(a) {
			t.Fatalf("ConeSize(%v) = %d, the oracle %d", a, g.ConeSize(a), o.ConeSize(a))
		}
		others := append(o.Providers(a).Sorted(), o.Customers(a).Sorted()...)
		others = append(others, o.Peers(a).Sorted()...)
		for k := 0; k < 8; k++ {
			others = append(others, probe[rng.Intn(len(probe))])
		}
		for _, b := range append(others, a) {
			if g.HasRelationship(a, b) != o.HasRelationship(a, b) ||
				g.IsProvider(a, b) != o.IsProvider(a, b) || g.IsProvider(b, a) != o.IsProvider(b, a) ||
				g.IsPeer(a, b) != o.IsPeer(a, b) {
				t.Fatalf("pair (%v, %v): relationship predicates differ from the oracle's", a, b)
			}
		}
	}
	for k := 0; k < 200; k++ {
		cands := make([]asn.ASN, rng.Intn(7))
		for j := range cands {
			cands[j] = probe[rng.Intn(len(probe))]
		}
		if g.SmallestCone(cands) != o.SmallestCone(cands) || g.LargestCone(cands) != o.LargestCone(cands) {
			t.Fatalf("SmallestCone/LargestCone(%v) differ from the oracle's", cands)
		}
	}
}

// edge is one AddP2C (p2c) or AddP2P call.
type edge struct {
	a, b asn.ASN
	p2c  bool
}

// randomEdges is a seeded edge list over ASes 1..n with every shape the
// graph must absorb: random edges of both kinds (duplicates among them),
// a p2c cycle, one edge added twice, a pair that is both p2c and p2p,
// self edges, edges to asn.None, and an AS seen only as a customer.
func randomEdges(rng *rand.Rand, n int) []edge {
	var es []edge
	for k := 0; k < 3*n; k++ {
		es = append(es, edge{asn.ASN(1 + rng.Intn(n)), asn.ASN(1 + rng.Intn(n)), rng.Intn(3) > 0})
	}
	es = append(es,
		edge{1, 2, true}, edge{2, 3, true}, edge{3, 1, true}, // cycle
		edge{4, 5, true}, edge{4, 5, true}, // duplicate
		edge{6, 7, true}, edge{6, 7, false}, // p2c and p2p
		edge{8, 8, true}, edge{9, 9, false}, // self
		edge{asn.None, 10, true}, edge{11, asn.None, false}, // None
		edge{1, asn.ASN(n + 100), true}, // only ever a customer
	)
	rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	return es
}

func addEdges(es []edge, g interface {
	AddP2C(p, c asn.ASN)
	AddP2P(a, b asn.ASN)
}) {
	for _, e := range es {
		if e.p2c {
			g.AddP2C(e.a, e.b)
		} else {
			g.AddP2P(e.a, e.b)
		}
	}
}

// TestGraphMatchesOracle holds the sorted-slice Graph to the hash-set
// oracle: Infer over the AS paths of three simulated Internets (the
// default configuration at seeds 2018 and 1, and rung M) and over seeded
// random paths (loops, repeats and paths too short to vote among them),
// and seeded random edge lists built edge by edge, by Merge of two
// halves, and by Read of the oracle's serialization. The cones of each random graph
// are first filled from four goroutines at once.
func TestGraphMatchesOracle(t *testing.T) {
	m, err := topo.LadderRung("M", 2018)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cfg  topo.Config
	}{
		{"default/2018", topo.DefaultConfig(2018)},
		{"default/1", topo.DefaultConfig(1)},
		{"M/2018", m.Cfg},
	} {
		t.Run(c.name, func(t *testing.T) {
			in, err := topo.Generate(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			paths := in.ASPaths()
			sameGraph(t, asrel.Infer(paths), oracleInfer(paths), rand.New(rand.NewSource(1)))
		})
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		paths := make([][]asn.ASN, 50+rng.Intn(200))
		for k := range paths {
			for n := rng.Intn(7); n > 0; n-- {
				paths[k] = append(paths[k], asn.ASN(1+rng.Intn(12)))
			}
		}
		sameGraph(t, asrel.Infer(paths), oracleInfer(paths), rng)

		es := randomEdges(rng, 5+rng.Intn(40))
		o := newOracle()
		addEdges(es, o)

		g := asrel.New()
		addEdges(es, g)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, a := range g.ASes() {
					g.ConeSize(a)
				}
			}()
		}
		wg.Wait()
		sameGraph(t, g, o, rng)

		half := len(es) / 2
		merged, rest := asrel.New(), asrel.New()
		addEdges(es[:half], merged)
		addEdges(es[half:], rest)
		merged.Merge(rest)
		sameGraph(t, merged, o, rng)

		var buf bytes.Buffer
		if err := o.Write(&buf); err != nil {
			t.Fatal(err)
		}
		read, err := asrel.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, read, o, rng)
	}
}

// FuzzReadDifferential holds Read to the oracle's: the same text is
// accepted or refused by both, with the same error, and what is accepted
// answers every query the same and writes the same bytes.
func FuzzReadDifferential(f *testing.F) {
	f.Add("# format: as1|as2|rel\n1|2|-1\n2|3|0\n")
	f.Add("1|2|-1\n2|3|-1\n3|1|-1\n1|2|-1\n")
	f.Add("5|6|-1\n5|6|0\n7|7|-1\n0|8|0\n")
	f.Add("AS1|as2|-1|extra\n")
	f.Add("1|2\n")
	f.Add("1|2|1\n")
	f.Add(" 4294967295|1|-1 \n\n#\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := asrel.Read(strings.NewReader(in))
		o, oerr := oracleRead(strings.NewReader(in))
		if (err == nil) != (oerr == nil) || err != nil && err.Error() != oerr.Error() {
			t.Fatalf("Read: %v; the oracle: %v", err, oerr)
		}
		if err == nil {
			sameGraph(t, g, o, rand.New(rand.NewSource(1)))
		}
	})
}
