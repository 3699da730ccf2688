package itdk

import (
	"bytes"
	"context"
	"net/netip"
	"strings"
	"testing"

	"repro/internal/alias"
	"repro/internal/asrel"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/ip2as"
	"repro/internal/traceroute"
)

func testKit(t *testing.T) *Kit {
	t.Helper()
	routes, err := bgp.ReadRoutes(strings.NewReader("1.0.0.0/24|9 100\n2.0.0.0/24|9 200\n"))
	if err != nil {
		t.Fatal(err)
	}
	resolver := &ip2as.Resolver{Table: bgp.NewTable(routes)}
	rels := asrel.New()
	rels.AddP2C(100, 200)
	tr := &traceroute.Trace{Dst: netip.MustParseAddr("2.0.0.99")}
	for i, h := range []string{"1.0.0.1", "2.0.0.1", "2.0.0.9"} {
		tr.Hops = append(tr.Hops, traceroute.Hop{
			Addr: netip.MustParseAddr(h), ProbeTTL: uint8(i + 1),
			Reply: traceroute.TimeExceeded,
		})
	}
	res, err := core.InferContext(context.Background(), []*traceroute.Trace{tr}, resolver, alias.NewSets(), rels, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return FromResult(res)
}

func TestFromResult(t *testing.T) {
	k := testKit(t)
	if len(k.Nodes) != 3 {
		t.Fatalf("nodes = %d", len(k.Nodes))
	}
	if len(k.Assignments) == 0 {
		t.Fatal("no assignments")
	}
	for _, a := range k.Assignments {
		if a.Method != "bdrmapit" {
			t.Errorf("method = %q", a.Method)
		}
	}
	if len(k.Links) != 2 {
		t.Errorf("links = %d", len(k.Links))
	}
	for _, l := range k.Links {
		if !l.To.Addr.IsValid() {
			t.Error("link missing far interface")
		}
	}
}

func TestNodesRoundTrip(t *testing.T) {
	k := testKit(t)
	var buf bytes.Buffer
	if err := k.WriteNodes(&buf); err != nil {
		t.Fatal(err)
	}
	nodes, err := ReadNodes(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != len(k.Nodes) {
		t.Fatalf("round trip: %d vs %d", len(nodes), len(k.Nodes))
	}
	for i := range nodes {
		if nodes[i].ID != k.Nodes[i].ID || len(nodes[i].Addrs) != len(k.Nodes[i].Addrs) {
			t.Errorf("node %d mismatch", i)
		}
	}
}

func TestNodesASRoundTrip(t *testing.T) {
	k := testKit(t)
	var buf bytes.Buffer
	if err := k.WriteNodesAS(&buf); err != nil {
		t.Fatal(err)
	}
	as, err := ReadNodesAS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != len(k.Assignments) {
		t.Fatalf("round trip: %d vs %d", len(as), len(k.Assignments))
	}
	for i := range as {
		if as[i] != k.Assignments[i] {
			t.Errorf("assignment %d: %+v vs %+v", i, as[i], k.Assignments[i])
		}
	}
}

func TestLinksRoundTrip(t *testing.T) {
	k := testKit(t)
	var buf bytes.Buffer
	if err := k.WriteLinks(&buf); err != nil {
		t.Fatal(err)
	}
	links, err := ReadLinks(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != len(k.Links) {
		t.Fatalf("round trip: %d vs %d", len(links), len(k.Links))
	}
	for i := range links {
		if links[i] != k.Links[i] {
			t.Errorf("link %d: %+v vs %+v", i, links[i], k.Links[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := ReadNodes(strings.NewReader("bogus")); err == nil {
		t.Error("non-record line accepted")
	}
	if _, err := ReadNodes(strings.NewReader("node N1 1.2.3.4")); err == nil {
		t.Error("missing colon accepted")
	}
	if _, err := ReadNodes(strings.NewReader("node Nx:  1.2.3.4")); err == nil {
		t.Error("bad id accepted")
	}
	if _, err := ReadNodes(strings.NewReader("node N1:  zzz")); err == nil {
		t.Error("bad addr accepted")
	}
	if _, err := ReadNodesAS(strings.NewReader("node.AS N1")); err == nil {
		t.Error("short assignment accepted")
	}
	if _, err := ReadNodesAS(strings.NewReader("node.AS N1 zz m")); err == nil {
		t.Error("bad asn accepted")
	}
	if _, err := ReadLinks(strings.NewReader("link L1:  N1")); err == nil {
		t.Error("one-endpoint link accepted")
	}
	if _, err := ReadLinks(strings.NewReader("link X1:  N1 N2")); err == nil {
		t.Error("bad link id accepted")
	}
	if _, err := ReadLinks(strings.NewReader("link L1:  N1:bad N2")); err == nil {
		t.Error("bad endpoint addr accepted")
	}
}

func TestASCounts(t *testing.T) {
	k := &Kit{Assignments: []Assignment{
		{NodeID: 1, AS: 100}, {NodeID: 2, AS: 100}, {NodeID: 3, AS: 200},
	}}
	counts := k.ASCounts()
	if len(counts) != 2 || counts[0].AS != 100 || counts[0].Nodes != 2 {
		t.Errorf("counts = %+v", counts)
	}
}
