package core

import (
	"context"
	"net/netip"
	"testing"

	"repro/internal/alias"
	"repro/internal/asrel"
	"repro/internal/bgp"
	"repro/internal/ip2as"
	"repro/internal/ixp"
	"repro/internal/rir"
	"repro/internal/traceroute"
)

// testEnv assembles the inputs for handcrafted scenario tests.
type testEnv struct {
	t        *testing.T
	resolver *ip2as.Resolver
	rels     *asrel.Graph
	aliases  *alias.Sets
	traces   []*traceroute.Trace
}

func newEnv(t *testing.T) *testEnv {
	return &testEnv{
		t: t,
		resolver: &ip2as.Resolver{
			Table:       bgp.NewTable(nil),
			Delegations: rir.New(),
			IXPs:        ixp.NewSet(),
		},
		rels:    asrel.New(),
		aliases: alias.NewSets(),
	}
}

// announce maps prefix → origin in the simulated BGP table.
func (e *testEnv) announce(prefix string, origin uint32) {
	path, err := bgp.ParsePath("64999 " + asnString(origin))
	if err != nil {
		e.t.Fatal(err)
	}
	e.resolver.Table.Add(bgp.Route{Prefix: netip.MustParsePrefix(prefix), Path: path})
}

func asnString(v uint32) string {
	b := [10]byte{}
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if i == len(b) {
		i--
		b[i] = '0'
	}
	return string(b[i:])
}

// ixpPrefix registers an IXP peering LAN.
func (e *testEnv) ixpPrefix(prefix string) {
	e.resolver.IXPs.Add(netip.MustParsePrefix(prefix))
}

// trace appends a traceroute. Hops are "addr" (Time Exceeded) or
// "addr/e" (Echo Reply); "*" skips a TTL (unresponsive hop).
func (e *testEnv) trace(dst string, hops ...string) {
	t := &traceroute.Trace{Dst: netip.MustParseAddr(dst), Stop: traceroute.StopGapLimit}
	ttl := uint8(0)
	for _, h := range hops {
		ttl++
		if h == "*" {
			continue
		}
		reply := traceroute.TimeExceeded
		if len(h) > 2 && h[len(h)-2:] == "/e" {
			reply = traceroute.EchoReply
			h = h[:len(h)-2]
		}
		t.Hops = append(t.Hops, traceroute.Hop{
			Addr: netip.MustParseAddr(h), ProbeTTL: ttl, Reply: reply,
		})
	}
	e.traces = append(e.traces, t)
}

// run builds the graph and executes the inference.
func (e *testEnv) run(opts Options) *Result {
	e.t.Helper()
	res, err := InferContext(context.Background(), e.traces, e.resolver, e.aliases, e.rels, opts)
	if err != nil {
		e.t.Fatal(err)
	}
	return res
}

// mustRun refines g to completion, failing t on an error.
func mustRun(t testing.TB, g *Graph, rels RelationshipOracle, opts Options) *Result {
	t.Helper()
	res, err := RunContext(context.Background(), g, rels, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// graph builds phase 1 only.
func (e *testEnv) graph() *Graph {
	b := NewBuilder(e.resolver, e.aliases)
	for _, t := range e.traces {
		b.AddTrace(t)
	}
	return b.Finish(e.rels)
}

// wantOperator asserts the inferred operator of addr's router.
func wantOperator(t *testing.T, res *Result, addr string, want uint32) {
	t.Helper()
	got := res.OperatorOf(netip.MustParseAddr(addr))
	if uint32(got) != want {
		t.Errorf("operator(%s) = %v, want AS%d", addr, got, want)
	}
}

// iface fetches an interface from a built graph.
func iface(t *testing.T, g *Graph, addr string) *Interface {
	t.Helper()
	i := g.Interface(netip.MustParseAddr(addr))
	if i == nil {
		t.Fatalf("interface %s not in graph", addr)
	}
	return i
}

// addr is a shorthand for netip.MustParseAddr in tests.
func addr(s string) netip.Addr { return netip.MustParseAddr(s) }
