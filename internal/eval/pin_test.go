package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"net/netip"
	"reflect"
	"testing"

	"repro/internal/alias"
	"repro/internal/topo"
	"repro/internal/traceroute"
)

func nodesDigest(t *testing.T, s *alias.Sets) string {
	t.Helper()
	h := sha256.New()
	if err := s.WriteNodes(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAliasPartitionsPinned pins what the simulator hands every
// experiment: the SHA-256 of the midar+iffinder and kapar partitions,
// as WriteNodes prints them, for three seeds of the small
// configuration. A change to alias resolution, alias probing or the
// campaign that moves one of them changes the datasets.
func TestAliasPartitionsPinned(t *testing.T) {
	pins := []struct {
		seed           int64
		aliases, kapar string
	}{
		{2018, "eab0d80c93298fd178146b556ee015b089eb03bb30274b0f50b6cd60b3e7acd5", "f84d682325697cb33c98e7faacaec53256795a17d1f1ea5c86a4f07f9973aee3"},
		{1, "a939cf7774c7daf4daf0896e18aa09fd747a96e07dac7b2a370fb4a61cc09f29", "2061068aaa5b942693059a6ef9bf271dc5b8aac4a0bf5efced5f174f2ac8edef"},
		{7, "d47a7f7c2000c1ca343c25afb96eb898262234348ef4e105810337ca49b41e68", "246f364f288a00cb14f35ea95e878f3061a568644422e4ff2a402f06ac3e9b26"},
	}
	for _, p := range pins {
		ds, err := BuildDataset(topo.SmallConfig(p.seed), 20, true)
		if err != nil {
			t.Fatal(err)
		}
		if got := nodesDigest(t, ds.Aliases); got != p.aliases {
			t.Errorf("seed %d: midar+iffinder partition digest %s, pinned %s", p.seed, got, p.aliases)
		}
		if got := nodesDigest(t, ds.KaparAliases); got != p.kapar {
			t.Errorf("seed %d: kapar partition digest %s, pinned %s", p.seed, got, p.kapar)
		}
	}
}

// TestEngineMatchesCampaign probes a sample of the campaign's
// (VP, target) pairs again through one Engine per VP, targets in
// reverse campaign order: every trace must equal the campaign's, so
// neither the probing order nor a generator shared across pairs can
// reach a trace.
func TestEngineMatchesCampaign(t *testing.T) {
	ds, err := BuildDataset(topo.SmallConfig(2018), 8, true)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct {
		vp  string
		dst netip.Addr
	}
	byPair := make(map[pair]*traceroute.Trace, len(ds.Traces))
	for _, tr := range ds.Traces {
		byPair[pair{tr.VP, tr.Dst}] = tr
	}
	checked := 0
	for _, vp := range ds.VPs {
		e := ds.In.Engine(vp)
		for j := len(ds.Targets) - 1; j >= 0; j -= 3 {
			dst := ds.Targets[j]
			want, ok := byPair[pair{vp.Name, dst}]
			if !ok {
				continue
			}
			if got := e.Traceroute(dst); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s → %v: the engine's trace differs from the campaign's", vp.Name, dst)
			}
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("only %d pairs checked", checked)
	}
}
