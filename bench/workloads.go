package main

import "repro/internal/topo"

// numBatches is how many held-out delta files every workload's ingest
// session absorbs.
const numBatches = 6

// workload is one set of inputs for the product loop. Every workload
// runs the same stages and reports the same metrics; only the inputs
// differ, chosen so that a different layer does most of the work.
type workload struct {
	// name as in BENCHMARK.json, which records why each was chosen.
	name string
	// topology returns the seeded generator configuration.
	topology func(seed int64) topo.Config
	// vps is the campaign's vantage-point count; 0 means one VP inside
	// the Tier1 ground-truth network (the paper's §7.1 bdrmap scenario).
	vps int
	// binary selects .bin traces and an MRT RIB; otherwise JSONL traces
	// and a text RIB. Delta batches are JSONL either way (the intake
	// validates JSONL only).
	binary bool
	// holdOutVPs makes the delta split broad: the last numBatches VPs are
	// held out of the base corpus, one whole VP per batch file. When
	// false the split is narrow: every stride-th trace of the campaign,
	// dealt round-robin into the batch files.
	holdOutVPs bool
	stride     int
	// zipf is the skew of the lookup population's popularity.
	zipf float64
	// missesHot reverses the population so the guaranteed misses are the
	// most popular addresses instead of the least.
	missesHot bool
}

// benchTopology is topo.DefaultConfig without the IPv6 twin (it doubles
// generation cost and never changes IPv4 results) and with the bounded
// routing-tree cache destination-major campaigns are built for.
func benchTopology(seed int64) topo.Config {
	cfg := topo.DefaultConfig(seed)
	cfg.EnableIPv6 = false
	cfg.RouteCacheTrees = 64
	return cfg
}

// deepTopology trades vantage points for graph size: 4× core chains in
// every AS give the largest router graph of any workload, seen from
// the fewest VPs.
func deepTopology(seed int64) topo.Config {
	cfg := wideTopology(seed)
	cfg.CoreScale = 4
	return cfg
}

// wideTopology probes one host per AS: half the traces per VP, so more
// VPs fit the same corpus size.
func wideTopology(seed int64) topo.Config {
	cfg := benchTopology(seed)
	cfg.HostsPerAS = 1
	return cfg
}

var workloads = []workload{
	{
		name:     "wide-jsonl",
		topology: wideTopology, vps: 16, stride: 50, zipf: 1.2,
	},
	{
		name:     "wide-bin",
		topology: wideTopology, vps: 16, binary: true, holdOutVPs: true, zipf: 1.2, missesHot: true,
	},
	{
		name:     "deep-bin",
		topology: deepTopology, vps: 6, binary: true, stride: 50, zipf: 1.01,
	},
	{
		name:     "single-vp",
		topology: benchTopology, vps: 0, stride: 8, zipf: 1.2,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
