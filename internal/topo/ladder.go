package topo

import (
	"fmt"
	"strings"
)

// Rung is one scale step of the benchmark ladder: a seeded topology
// configuration plus the campaign shape the benchmark harness runs on
// it. Rungs are ordered S < M < L < XL by ground-truth router count
// (roughly 10³, 10⁴, 10⁵, and 10⁶ routers).
type Rung struct {
	// Name is the ladder label: "S", "M", "L", or "XL".
	Name string
	// Cfg is the topology configuration for the rung.
	Cfg Config
	// NumVPs is the campaign's vantage-point count. Larger rungs use
	// fewer VPs: trace volume grows with VPs × targets and the ladder
	// scales along the target axis.
	NumVPs int
	// Chunk is the StreamCampaign emission chunk size.
	Chunk int
	// Manual marks rungs too large for CI; they are documented targets
	// run by hand (see README "Benchmarking").
	Manual bool
}

// RungNames lists the ladder rungs smallest first — the order the
// monotonicity checks on committed BENCH_*.json files use.
func RungNames() []string { return []string{"S", "M", "L", "XL"} }

// RungIndex returns a rung name's position on the ladder (case
// insensitive), or -1 for unknown names.
func RungIndex(name string) int {
	for i, n := range RungNames() {
		if strings.EqualFold(name, n) {
			return i
		}
	}
	return -1
}

// LadderRung returns the named rung seeded with seed. All rungs share
// the DefaultConfig behaviour probabilities — the measurement artifacts
// the heuristics handle appear at every scale — and differ only in
// population, chain length (CoreScale), host density, and campaign
// shape. IPv6 is disabled on every rung (the dual-stack view never
// perturbs IPv4 results and roughly doubles generation cost), and the
// routing-tree cache is bounded so campaign memory does not scale with
// the AS population; both campaign walks (RunCampaign, StreamCampaign)
// probe destination by destination, so the bound costs neither of them
// a recomputed tree per VP.
func LadderRung(name string, seed int64) (Rung, error) {
	base := DefaultConfig(seed)
	base.EnableIPv6 = false
	base.RouteCacheTrees = 64
	switch {
	case strings.EqualFold(name, "S"):
		// ~400 ASes, ~1.3k routers: the evaluation-scale topology.
		return Rung{Name: "S", Cfg: base, NumVPs: 20, Chunk: 4096}, nil
	case strings.EqualFold(name, "M"):
		// ~3.5k ASes, ~10⁴ routers.
		base.NumTransit = 150
		base.NumAccess = 100
		base.NumRE = 40
		base.NumStub = 3200
		base.NumIXPs = 8
		return Rung{Name: "M", Cfg: base, NumVPs: 12, Chunk: 4096}, nil
	case strings.EqualFold(name, "L"):
		// ~17k ASes, ~10⁵ routers: AS counts near the address-plan caps,
		// router counts grown through 4× core chains.
		base.NumTier1 = 10
		base.NumTransit = 200
		base.NumAccess = 150
		base.NumRE = 60
		base.NumStub = 17000
		base.NumIXPs = 10
		base.HostsPerAS = 1
		base.CoreScale = 4
		base.RouteCacheTrees = 32
		return Rung{Name: "L", Cfg: base, NumVPs: 10, Chunk: 8192}, nil
	case strings.EqualFold(name, "XL"):
		// ~45k ASes, ~10⁶ routers via 16× core chains. Manual target:
		// generation alone takes tens of minutes.
		base.NumTier1 = 10
		base.NumTransit = 200
		base.NumAccess = 150
		base.NumRE = 60
		base.NumStub = 45000
		base.NumIXPs = 10
		base.HostsPerAS = 1
		base.CoreScale = 16
		base.RouteCacheTrees = 32
		return Rung{Name: "XL", Cfg: base, NumVPs: 8, Chunk: 8192, Manual: true}, nil
	}
	return Rung{}, fmt.Errorf("topo: unknown ladder rung %q (want one of %v)", name, RungNames())
}
