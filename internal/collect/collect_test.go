package collect

import (
	"net/netip"
	"testing"

	"repro/internal/alias"
	"repro/internal/baseline/bdrmap"
	"repro/internal/core"
	"repro/internal/topo"
)

func testWorld(t *testing.T) (*topo.Internet, Engine, Options) {
	t.Helper()
	in, err := topo.Generate(topo.SmallConfig(17))
	if err != nil {
		t.Fatal(err)
	}
	vps := in.SelectVPs(1, nil)
	if len(vps) == 0 {
		t.Fatal("no VP")
	}
	eng := in.Engine(vps[0])
	return in, eng, Options{Resolver: in.Resolver()}
}

func TestRunCollectsEveryPrefix(t *testing.T) {
	in, eng, opts := testWorld(t)
	prefixes := in.RoutedPrefixes()
	res := Run(eng, prefixes, opts)
	if len(res.Traces) < len(prefixes)/2 {
		t.Fatalf("only %d traces for %d prefixes", len(res.Traces), len(prefixes))
	}
	// Collection must include traces beyond one per prefix when the
	// reactive condition triggers.
	if res.Reprobed == 0 {
		t.Log("no reactive probes triggered on this seed (acceptable)")
	} else if len(res.Traces) <= len(prefixes)-res.Reprobed {
		t.Errorf("reactive probes did not add traces: %d traces, %d prefixes, %d reprobed",
			len(res.Traces), len(prefixes), res.Reprobed)
	}
	for _, tr := range res.Traces {
		if err := tr.Validate(); err != nil {
			t.Fatalf("invalid collected trace: %v", err)
		}
	}
}

func TestRunResolvesAliases(t *testing.T) {
	_, eng, opts := testWorld(t)
	res := Run(eng, []netip.Prefix{}, opts)
	if res.Aliases == nil {
		t.Fatal("nil aliases")
	}
	_, eng2, opts2 := testWorld(t)
	opts2.SkipAliases = true
	res2 := Run(eng2, []netip.Prefix{}, opts2)
	if res2.Aliases.NumAddrs() != 0 {
		t.Error("SkipAliases still resolved")
	}
}

// TestCollectionFeedsBdrmap runs the full single-VP bdrmap pipeline the
// way the original system did: reactive collection, then inference.
func TestCollectionFeedsBdrmap(t *testing.T) {
	in, eng, opts := testWorld(t)
	vps := in.SelectVPs(1, nil)
	res := Run(eng, in.RoutedPrefixes(), opts)
	if len(res.Traces) == 0 {
		t.Fatal("no traces collected")
	}
	rels := in.Rels // ground-truth relationships suffice for the smoke test
	b := bdrmap.Infer(res.Traces, opts.Resolver, res.Aliases, rels,
		bdrmap.Options{VPAS: vps[0].AS.ASN})
	if len(b.Neighbors()) == 0 {
		t.Error("no neighbors inferred from collected data")
	}
	_ = core.Options{}
	_ = alias.Sets{}
}

func TestNeedsReprobe(t *testing.T) {
	in, _, opts := testWorld(t)
	_ = in
	if !needsReprobe(nil, 100, opts.Resolver) {
		t.Error("nil trace should reprobe")
	}
}

func TestProbeAddrsSpread(t *testing.T) {
	p := netip.MustParsePrefix("20.0.0.0/24")
	got := probeAddrs(p, 3)
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	seen := map[netip.Addr]bool{}
	for _, a := range got {
		if !p.Contains(a) {
			t.Errorf("addr %v outside prefix", a)
		}
		if seen[a] {
			t.Errorf("duplicate probe %v", a)
		}
		seen[a] = true
	}
	// /31: single probe at the network address.
	if got := probeAddrs(netip.MustParsePrefix("20.0.0.0/31"), 3); len(got) != 1 {
		t.Errorf("/31 probes = %v", got)
	}
}
