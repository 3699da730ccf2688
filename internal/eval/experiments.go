package eval

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/alias"
	"repro/internal/asn"
	"repro/internal/baseline/bdrmap"
	"repro/internal/baseline/mapit"
	"repro/internal/core"
	"repro/internal/topo"
	"repro/internal/traceroute"
)

// gtOrder fixes the presentation order of the ground-truth networks.
var gtOrder = []string{"Tier1", "RE1", "RE2", "LAccess"}

func (ds *Dataset) gtNetworks() []struct {
	Name string
	ASN  asn.ASN
} {
	var out []struct {
		Name string
		ASN  asn.ASN
	}
	for _, name := range gtOrder {
		if a, ok := ds.GT[name]; ok {
			out = append(out, struct {
				Name string
				ASN  asn.ASN
			}{name, a})
		}
	}
	return out
}

// RunBdrmapIT executes the full bdrmapIT pipeline over the dataset with
// the given aliases (nil → the dataset's midar+iffinder run) and
// options.
func (ds *Dataset) RunBdrmapIT(aliases *alias.Sets, opts core.Options) *core.Result {
	if aliases == nil {
		aliases = ds.Aliases
	}
	return ds.infer(ds.Traces, aliases, opts)
}

// infer runs bdrmapIT over traces with the dataset's resolver and
// relationships, at the dataset's worker count unless opts names one.
// An experiment neither cancels nor checkpoints, the only ways
// InferContext fails, so an error here is a bug.
func (ds *Dataset) infer(traces []*traceroute.Trace, aliases *alias.Sets, opts core.Options) *core.Result {
	if opts.Workers == 0 {
		opts.Workers = ds.Workers
	}
	res, err := core.InferContext(context.Background(), traces, ds.Resolver, aliases, ds.Rels, opts)
	if err != nil {
		panic("eval: " + err.Error())
	}
	return res
}

// Fig15Row is one ground-truth network's single-VP regression result
// (paper Fig. 15): bdrmapIT vs bdrmap accuracy on identical data.
type Fig15Row struct {
	Network  string
	ASN      asn.ASN
	Links    int
	BdrmapIT float64
	Bdrmap   float64
}

// RunFig15 reruns the §7.1 regression: for each ground-truth network,
// a single in-network VP campaign scored for both tools.
func RunFig15(ds *Dataset) []Fig15Row {
	var rows []Fig15Row
	for _, gt := range ds.gtNetworks() {
		vp, ok := ds.In.VPIn(gt.ASN)
		if !ok {
			continue
		}
		traces := ds.In.RunCampaign([]topo.VP{vp}, ds.Targets)
		addrs := ObservedAddrs(traces)
		p := ds.In.Prober()
		aliases := alias.Merge(alias.MIDAR(p, addrs, alias.MIDAROptions{}), alias.Iffinder(p, addrs))

		itRes := ds.infer(traces, aliases, core.Options{})
		bRes := bdrmap.Infer(traces, ds.Resolver, aliases, ds.Rels, bdrmap.Options{VPAS: gt.ASN})

		links := ObservedLinks(ds.In, traces)
		accIT, n := Accuracy(links, itRes, gt.ASN)
		accB, _ := Accuracy(links, bRes, gt.ASN)
		rows = append(rows, Fig15Row{Network: gt.Name, ASN: gt.ASN, Links: n, BdrmapIT: accIT, Bdrmap: accB})
	}
	return rows
}

// Fig16Row is one network's Internet-wide precision/recall comparison
// (paper Figs. 16 and 17).
type Fig16Row struct {
	Network         string
	ASN             asn.ASN
	Links           int
	BdrmapIT, MAPIT PR
}

// RunFig16 scores bdrmapIT and MAP-IT over the no-in-network-VP
// dataset. With excludeLastHop it becomes the Fig. 17 variant.
func RunFig16(ds *Dataset, excludeLastHop bool) []Fig16Row {
	itRes := ds.RunBdrmapIT(nil, core.Options{})
	mRes := mapit.Infer(ds.Traces, ds.Resolver, mapit.Options{})
	links := ObservedLinks(ds.In, ds.Traces)
	opts := ScoreOptions{ExcludeLastHopOnly: excludeLastHop}

	var rows []Fig16Row
	for _, gt := range ds.gtNetworks() {
		n := 0
		for _, l := range links {
			if l.Interdomain() && l.Involves(gt.ASN) && !l.FarEchoOnly &&
				!(excludeLastHop && l.LastHopOnly) {
				n++
			}
		}
		rows = append(rows, Fig16Row{
			Network:  gt.Name,
			ASN:      gt.ASN,
			Links:    n,
			BdrmapIT: Score(links, itRes, gt.ASN, opts),
			MAPIT:    Score(links, mRes, gt.ASN, opts),
		})
	}
	return rows
}

// SweepRow is one VP-count group's result (paper Figs. 18 and 19):
// mean and standard error over the random VP subsets.
type SweepRow struct {
	NumVPs  int
	Network string
	// Precision/Recall mean and standard error across the subsets.
	PrecMean, PrecSE       float64
	RecMean, RecSE         float64
	VisibleMean, VisibleSE float64 // fraction of the full-VP visible links
}

// RunVPSweep evaluates bdrmapIT over groups of randomly chosen VP
// subsets (5 sets per size, per §7.3).
func RunVPSweep(ds *Dataset, sizes []int, setsPerSize int) []SweepRow {
	fullLinks := ObservedLinks(ds.In, ds.Traces)
	fullVisible := make(map[asn.ASN]int)
	for _, gt := range ds.gtNetworks() {
		fullVisible[gt.ASN] = VisibleLinks(fullLinks, gt.ASN)
	}
	rng := rand.New(rand.NewSource(ds.In.Cfg.Seed ^ 0x7357))
	var rows []SweepRow
	for _, size := range sizes {
		type accum struct{ prec, rec, vis []float64 }
		got := make(map[string]*accum)
		for _, gt := range ds.gtNetworks() {
			got[gt.Name] = &accum{}
		}
		for s := 0; s < setsPerSize; s++ {
			vps := append([]topo.VP{}, ds.VPs...)
			rng.Shuffle(len(vps), func(i, j int) { vps[i], vps[j] = vps[j], vps[i] })
			if size < len(vps) {
				vps = vps[:size]
			}
			traces := ds.TracesFromVPs(vps)
			res := ds.infer(traces, ds.Aliases, core.Options{})
			links := ObservedLinks(ds.In, traces)
			for _, gt := range ds.gtNetworks() {
				pr := Score(links, res, gt.ASN, ScoreOptions{})
				a := got[gt.Name]
				a.prec = append(a.prec, pr.Precision())
				a.rec = append(a.rec, pr.Recall())
				frac := 0.0
				if fv := fullVisible[gt.ASN]; fv > 0 {
					frac = float64(VisibleLinks(links, gt.ASN)) / float64(fv)
				}
				a.vis = append(a.vis, frac)
			}
		}
		for _, gt := range ds.gtNetworks() {
			a := got[gt.Name]
			pm, pse := meanSE(a.prec)
			rm, rse := meanSE(a.rec)
			vm, vse := meanSE(a.vis)
			rows = append(rows, SweepRow{
				NumVPs: size, Network: gt.Name,
				PrecMean: pm, PrecSE: pse,
				RecMean: rm, RecSE: rse,
				VisibleMean: vm, VisibleSE: vse,
			})
		}
	}
	return rows
}

func meanSE(xs []float64) (mean, se float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var v float64
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	v /= float64(len(xs) - 1)
	return mean, math.Sqrt(v / float64(len(xs)))
}

// Fig20Row compares router-annotation accuracy under precise
// (midar+iffinder) and imprecise (kapar) alias resolution, restricted
// to IRs with multiple aliases (paper §7.4, Fig. 20).
type Fig20Row struct {
	Network      string
	ASN          asn.ASN
	MidarAcc     float64
	MidarRouters int
	KaparAcc     float64
	KaparRouters int
}

// RunFig20 reruns the alias-resolution comparison.
func RunFig20(ds *Dataset) []Fig20Row {
	midarRes := ds.RunBdrmapIT(ds.Aliases, core.Options{})
	kaparRes := ds.RunBdrmapIT(ds.KaparAliases, core.Options{})
	var rows []Fig20Row
	for _, gt := range ds.gtNetworks() {
		ma, mn := MultiAliasRouterAccuracy(ds.In, midarRes, gt.ASN)
		ka, kn := MultiAliasRouterAccuracy(ds.In, kaparRes, gt.ASN)
		rows = append(rows, Fig20Row{
			Network: gt.Name, ASN: gt.ASN,
			MidarAcc: ma, MidarRouters: mn,
			KaparAcc: ka, KaparRouters: kn,
		})
	}
	return rows
}

// MultiAliasRouterAccuracy computes, over inferred routers with at
// least two interfaces whose ground truth involves network gt, the
// fraction annotated with the correct operator. A router whose
// interfaces truly belong to different routers with different owners
// (a false alias merge) can never be correct — the mechanism by which
// imprecise aliasing hurts (§7.4).
func MultiAliasRouterAccuracy(in *topo.Internet, res *core.Result, gt asn.ASN) (float64, int) {
	correct, total := 0, 0
	for _, r := range res.Graph.Routers {
		if len(r.Interfaces) < 2 {
			continue
		}
		owners := asn.NewSet()
		for _, i := range r.Interfaces {
			if o := in.OwnerASN(i.Addr); o != asn.None {
				owners.Add(o)
			}
		}
		if !owners.Has(gt) {
			continue
		}
		total++
		if owners.Len() == 1 && r.Annotation == owners.Sorted()[0] {
			correct++
		}
	}
	if total == 0 {
		return 0, 0
	}
	return float64(correct) / float64(total), total
}

// OverallAccuracy scores an inference across every ground-truth
// network at once (used by the no-alias delta and ablations).
func (ds *Dataset) OverallAccuracy(res Operators) (float64, int) {
	links := ObservedLinks(ds.In, ds.Traces)
	correct, total := 0, 0
	for _, gt := range ds.gtNetworks() {
		for _, l := range links {
			if !l.Interdomain() || !l.Involves(gt.ASN) || l.FarEchoOnly {
				continue
			}
			total++
			if res.OperatorOf(l.NearAddr) == l.NearASN && res.OperatorOf(l.FarAddr) == l.FarASN {
				correct++
			}
		}
	}
	if total == 0 {
		return 0, 0
	}
	return float64(correct) / float64(total), total
}

// AblationRow records one heuristic toggle's effect.
type AblationRow struct {
	Name     string
	Accuracy float64
	Links    int
}

// RunAblations measures each heuristic's contribution by disabling it.
func RunAblations(ds *Dataset) []AblationRow {
	cases := []struct {
		name string
		opts core.Options
	}{
		{"all heuristics", core.Options{}},
		{"no last-hop destinations (§5.2)", core.Options{DisableLastHopDest: true}},
		{"no third-party test (§6.1.1)", core.Options{DisableThirdParty: true}},
		{"no reallocated-prefix fix (§6.1.2)", core.Options{DisableRealloc: true}},
		{"no voting exceptions (§6.1.3)", core.Options{DisableExceptions: true}},
		{"no hidden-AS check (§6.1.5)", core.Options{DisableHiddenAS: true}},
		{"no dest-coverage tie-break (extension)", core.Options{DisableDestTieBreak: true}},
	}
	var rows []AblationRow
	for _, c := range cases {
		res := ds.RunBdrmapIT(nil, c.opts)
		acc, n := ds.OverallAccuracy(res)
		rows = append(rows, AblationRow{Name: c.name, Accuracy: acc, Links: n})
	}
	return rows
}

// FormatTable renders rows of labelled float cells as an aligned text
// table (the harness's output form for every figure).
func FormatTable(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", width[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return sb.String()
}

// SortedGTNames returns the dataset's ground-truth network names in
// presentation order.
func (ds *Dataset) SortedGTNames() []string {
	var names []string
	for _, gt := range ds.gtNetworks() {
		names = append(names, gt.Name)
	}
	sort.Strings(names)
	return names
}
