package topo

import (
	"reflect"
	"testing"

	"repro/internal/traceroute"
)

// TestRunCampaignIsVPMajor pins RunCampaign's order to the contract
// simnet and eval read it by: probing VP by VP, then target by target,
// with a bounded tree cache that the walk must not perturb.
func TestRunCampaignIsVPMajor(t *testing.T) {
	cfg := SmallConfig(11)
	cfg.RouteCacheTrees = 4
	in, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vps := in.SelectVPs(6, nil)
	targets := in.Targets()
	got := in.RunCampaign(vps, targets)

	ref, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []*traceroute.Trace
	for _, vp := range ref.SelectVPs(6, nil) {
		e := ref.Engine(vp)
		for _, dst := range targets {
			if dst == vp.Src {
				continue
			}
			if tr := e.Traceroute(dst); tr != nil && len(tr.Hops) > 0 {
				want = append(want, tr)
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("campaign produced no traces")
	}
	if len(got) != len(want) {
		t.Fatalf("RunCampaign returned %d traces, probing VP by VP %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("trace %d: got %s, want %s", i, traceKey(got[i]), traceKey(want[i]))
		}
	}
}

// rungS is the S ladder rung's topology for the substrate benchmarks.
func rungS(b *testing.B) Rung {
	r, err := LadderRung("S", 2018)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkGenerate times building the S rung's Internet: topology,
// routing set-up and the RIB export, which walks every destination's
// routing tree.
func BenchmarkGenerate(b *testing.B) {
	cfg := rungS(b).Cfg
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunCampaign times the S rung's campaign (its VPs, every
// target) from an empty tree cache.
func BenchmarkRunCampaign(b *testing.B) {
	r := rungS(b)
	in, err := Generate(r.Cfg)
	if err != nil {
		b.Fatal(err)
	}
	vps, targets := in.SelectVPs(r.NumVPs, nil), in.Targets()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		in.initRouting()
		b.StartTimer()
		if len(in.RunCampaign(vps, targets)) == 0 {
			b.Fatal("campaign produced no traces")
		}
	}
}
