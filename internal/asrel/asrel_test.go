package asrel

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/asn"
)

// buildTestGraph: 1 ── 2 peers; 1→3, 2→4 transit; 3→5, 3→6, 4→6.
func buildTestGraph() *Graph {
	g := New()
	g.AddP2P(1, 2)
	g.AddP2C(1, 3)
	g.AddP2C(2, 4)
	g.AddP2C(3, 5)
	g.AddP2C(3, 6)
	g.AddP2C(4, 6)
	return g
}

func TestRelationshipQueries(t *testing.T) {
	g := buildTestGraph()
	if !g.HasRelationship(1, 2) || !g.HasRelationship(2, 1) {
		t.Error("peering not symmetric")
	}
	if !g.HasRelationship(1, 3) || !g.HasRelationship(3, 1) {
		t.Error("transit not visible both ways")
	}
	if g.HasRelationship(1, 4) {
		t.Error("unrelated ASes related")
	}
	if g.HasRelationship(1, 1) {
		t.Error("self relationship")
	}
	if !g.IsProvider(1, 3) || g.IsProvider(3, 1) {
		t.Error("IsProvider direction wrong")
	}
	if !g.IsPeer(1, 2) || g.IsPeer(1, 3) {
		t.Error("IsPeer wrong")
	}
}

func TestSelfAndNoneEdgesIgnored(t *testing.T) {
	g := New()
	g.AddP2C(1, 1)
	g.AddP2P(2, 2)
	g.AddP2C(asn.None, 3)
	g.AddP2P(4, asn.None)
	if len(g.ASes()) != 0 {
		t.Errorf("degenerate edges created ASes: %v", g.ASes())
	}
}

func TestCustomerCone(t *testing.T) {
	g := buildTestGraph()
	cone := g.CustomerCone(1)
	if want := (asn.SmallSet{1, 3, 5, 6}); !cone.Equal(want) {
		t.Errorf("cone(1) = %v, want %v", cone, want)
	}
	if g.ConeSize(1) != 4 {
		t.Errorf("coneSize(1) = %d", g.ConeSize(1))
	}
	if g.ConeSize(5) != 1 {
		t.Errorf("stub cone = %d", g.ConeSize(5))
	}
}

func TestConeCacheInvalidation(t *testing.T) {
	g := buildTestGraph()
	if g.ConeSize(2) != 3 { // 2, 4, 6
		t.Fatalf("cone(2) = %d", g.ConeSize(2))
	}
	g.AddP2C(4, 7)
	if g.ConeSize(2) != 4 {
		t.Errorf("cone(2) after mutation = %d", g.ConeSize(2))
	}
}

func TestSmallestLargestCone(t *testing.T) {
	g := buildTestGraph()
	if got := g.SmallestCone([]asn.ASN{1, 3, 5}); got != 5 {
		t.Errorf("smallest = %v", got)
	}
	if got := g.LargestCone([]asn.ASN{3, 4, 5}); got != 3 {
		t.Errorf("largest = %v", got)
	}
	if got := g.SmallestCone(nil); got != asn.None {
		t.Errorf("empty smallest = %v", got)
	}
	// Ties break toward the smaller ASN.
	if got := g.SmallestCone([]asn.ASN{6, 5}); got != 5 {
		t.Errorf("tie = %v", got)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	g := buildTestGraph()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	again, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if again.NumEdges() != g.NumEdges() {
		t.Fatalf("edges %d != %d", again.NumEdges(), g.NumEdges())
	}
	for _, pair := range [][2]asn.ASN{{1, 3}, {2, 4}, {3, 5}, {3, 6}, {4, 6}} {
		if !again.IsProvider(pair[0], pair[1]) {
			t.Errorf("lost p2c %v", pair)
		}
	}
	if !again.IsPeer(1, 2) {
		t.Error("lost p2p")
	}
}

func TestReadFormat(t *testing.T) {
	in := "# comment\n1|2|0\n1|3|-1\n"
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsPeer(1, 2) || !g.IsProvider(1, 3) {
		t.Error("parse wrong")
	}
	for _, bad := range []string{"1|2", "x|2|0", "1|y|0", "1|2|9", "1|2|z"} {
		if _, err := Read(strings.NewReader(bad)); err == nil {
			t.Errorf("expected error for %q", bad)
		}
	}
}

// TestInferHierarchy checks relationship inference on paths generated
// from a known hierarchy: clique {1,2}, transit 3 (cust of 1), 4 (cust
// of 2), stubs 5 (cust of 3), 6 (cust of 4).
func TestInferHierarchy(t *testing.T) {
	paths := [][]asn.ASN{
		// Uphill then downhill through the clique.
		{5, 3, 1, 2, 4, 6},
		{6, 4, 2, 1, 3, 5},
		{3, 1, 2, 4},
		{4, 2, 1, 3},
		{5, 3, 1},
		{6, 4, 2},
		{1, 3, 5},
		{2, 4, 6},
		{1, 2},
		{2, 1},
	}
	g := Infer(paths)
	if !g.IsPeer(1, 2) {
		t.Error("clique peering not inferred")
	}
	checks := [][2]asn.ASN{{1, 3}, {2, 4}, {3, 5}, {4, 6}}
	for _, c := range checks {
		if !g.IsProvider(c[0], c[1]) {
			t.Errorf("p2c %v→%v not inferred", c[0], c[1])
		}
		if g.IsProvider(c[1], c[0]) {
			t.Errorf("p2c %v→%v inverted", c[0], c[1])
		}
	}
}

func TestInferSkipsLoops(t *testing.T) {
	g := Infer([][]asn.ASN{{1, 2, 1}})
	if g.HasRelationship(1, 2) {
		t.Error("looped path should be ignored")
	}
}

func TestInferConflictResolution(t *testing.T) {
	// 10 transits for 20 in most paths; one poisoned reverse observation.
	var paths [][]asn.ASN
	for i := 0; i < 10; i++ {
		paths = append(paths, []asn.ASN{20, 10, 30})
	}
	paths = append(paths, []asn.ASN{10, 20, 40})
	// Give 10 the top transit degree.
	paths = append(paths, []asn.ASN{50, 10, 60}, []asn.ASN{60, 10, 50})
	g := Infer(paths)
	if !g.IsProvider(10, 20) {
		t.Errorf("majority vote should make 10 the provider of 20")
	}
}
