package alias

import (
	"net/netip"
	"slices"
	"testing"

	"repro/internal/topo"
	"repro/internal/traceroute"
)

// smallCampaign is the small configuration's Internet (seed 2018), a
// 20-VP campaign over every target, and the sorted addresses that
// replied in it.
func smallCampaign(b *testing.B) (*topo.Internet, []*traceroute.Trace, []netip.Addr) {
	in, err := topo.Generate(topo.SmallConfig(2018))
	if err != nil {
		b.Fatal(err)
	}
	traces := in.RunCampaign(in.SelectVPs(20, nil), in.Targets())
	var addrs []netip.Addr
	for _, t := range traces {
		for _, h := range t.Hops {
			addrs = append(addrs, h.Addr)
		}
	}
	slices.SortFunc(addrs, netip.Addr.Compare)
	return in, traces, slices.Compact(addrs)
}

// BenchmarkMIDAR times one MIDAR sweep over the small campaign's
// observed addresses: velocity estimation, bucketing, and the
// monotonic-bounds test over every pair of a bucket.
func BenchmarkMIDAR(b *testing.B) {
	in, _, addrs := smallCampaign(b)
	p := in.Prober()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if MIDAR(p, addrs, MIDAROptions{}).NumGroups() == 0 {
			b.Fatal("MIDAR found no aliases")
		}
	}
}

// BenchmarkKapar times kapar's analytical resolution over the small
// campaign's traces.
func BenchmarkKapar(b *testing.B) {
	_, traces, _ := smallCampaign(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Kapar(traces, nil).NumGroups() == 0 {
			b.Fatal("kapar found no aliases")
		}
	}
}
