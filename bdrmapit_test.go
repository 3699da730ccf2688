package bdrmapit

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/simnet"
)

var (
	dsOnce  sync.Once
	dsPaths *simnet.DatasetPaths
	dsNet   *simnet.Network
	dsErr   error
)

// dataset writes one small synthetic dataset per test process.
func dataset(t *testing.T) (*simnet.DatasetPaths, *simnet.Network) {
	t.Helper()
	dsOnce.Do(func() {
		var n *simnet.Network
		n, dsErr = simnet.Generate(simnet.Options{Small: true, Seed: 31, NumVPs: 12})
		if dsErr != nil {
			return
		}
		dir, err := os.MkdirTemp("", "bdrmapit-test")
		if err != nil {
			dsErr = err
			return
		}
		dsPaths, dsErr = n.WriteDataset(dir)
		dsNet = n
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return dsPaths, dsNet
}

func runFull(t *testing.T, opts Options) *Result {
	t.Helper()
	p, _ := dataset(t)
	res, err := Run(Sources{
		TraceroutePaths:     []string{p.Traceroutes},
		BGPRIBPaths:         []string{p.RIB},
		RIRDelegationPaths:  []string{p.Delegations},
		IXPPrefixListPaths:  []string{p.IXPPrefixes},
		ASRelationshipPaths: []string{p.Relationships},
		AliasNodePaths:      []string{p.Aliases},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunEndToEnd(t *testing.T) {
	res := runFull(t, Options{})
	if res.NumInterfaces() == 0 || res.NumRouters() == 0 {
		t.Fatal("empty result")
	}
	if !res.Converged || res.Iterations == 0 {
		t.Errorf("refinement: iterations=%d converged=%v", res.Iterations, res.Converged)
	}
	if len(res.InterdomainLinks()) == 0 || len(res.ASLinks()) == 0 {
		t.Fatal("no links inferred")
	}
}

func TestRunAccuracyAgainstGroundTruth(t *testing.T) {
	p, _ := dataset(t)
	res := runFull(t, Options{})
	truth, err := simnet.ReadGroundTruth(p.GroundTruth)
	if err != nil {
		t.Fatal(err)
	}
	correct, total := 0, 0
	for addr, owner := range truth {
		if got, ok := res.RouterOperator(addr); ok {
			total++
			if got == owner {
				correct++
			}
		}
	}
	if total < 100 {
		t.Fatalf("only %d observed interfaces scored", total)
	}
	if acc := float64(correct) / float64(total); acc < 0.85 {
		t.Errorf("router accuracy %.3f below floor", acc)
	}
}

func TestRunWithoutRelationshipFile(t *testing.T) {
	p, _ := dataset(t)
	res, err := Run(Sources{
		TraceroutePaths:    []string{p.Traceroutes},
		BGPRIBPaths:        []string{p.RIB},
		RIRDelegationPaths: []string{p.Delegations},
		IXPPrefixListPaths: []string{p.IXPPrefixes},
		AliasNodePaths:     []string{p.Aliases},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InterdomainLinks()) == 0 {
		t.Error("no links without a relationship file")
	}
}

// TestRelationshipsSplitAcrossFiles: the relationship file's edges split
// over two files (alternate lines, one edge in both) give the one file's
// annotations. The first file's graph is the run's, and the second is
// merged into it.
func TestRelationshipsSplitAcrossFiles(t *testing.T) {
	p, _ := dataset(t)
	data, err := os.ReadFile(p.Relationships)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	var halves [2]strings.Builder
	for k, line := range lines {
		halves[k%2].WriteString(line)
	}
	halves[1].WriteString(lines[len(lines)/2])
	dir := t.TempDir()
	var paths []string
	for k := range halves {
		path := filepath.Join(dir, fmt.Sprintf("as-rel-%d.txt", k))
		if err := os.WriteFile(path, []byte(halves[k].String()), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	split, err := Run(Sources{
		TraceroutePaths:     []string{p.Traceroutes},
		BGPRIBPaths:         []string{p.RIB},
		RIRDelegationPaths:  []string{p.Delegations},
		IXPPrefixListPaths:  []string{p.IXPPrefixes},
		ASRelationshipPaths: paths,
		AliasNodePaths:      []string{p.Aliases},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := split.Annotations(&got); err != nil {
		t.Fatal(err)
	}
	if err := runFull(t, Options{}).Annotations(&want); err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("annotations from the split relationship files (%d bytes) differ from the one file's (%d bytes)", got.Len(), want.Len())
	}
}

func TestRunWithoutAliases(t *testing.T) {
	p, _ := dataset(t)
	res, err := Run(Sources{
		TraceroutePaths: []string{p.Traceroutes},
		BGPRIBPaths:     []string{p.RIB},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRouters() != res.NumInterfaces() {
		t.Errorf("without aliases, routers (%d) must equal interfaces (%d)",
			res.NumRouters(), res.NumInterfaces())
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Sources{}, Options{}); err == nil {
		t.Error("no traceroute inputs should error")
	}
	if _, err := Run(Sources{TraceroutePaths: []string{"/nonexistent"}}, Options{}); err == nil {
		t.Error("missing file should error")
	}
	p, _ := dataset(t)
	if _, err := Run(Sources{
		TraceroutePaths: []string{p.Traceroutes},
		BGPRIBPaths:     []string{p.GroundTruth}, // wrong format
	}, Options{}); err == nil {
		t.Error("malformed RIB should error")
	}
}

func TestAnnotationsOutput(t *testing.T) {
	res := runFull(t, Options{})
	var buf bytes.Buffer
	if err := res.Annotations(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != res.NumInterfaces() {
		t.Errorf("%d annotation lines for %d interfaces", len(lines), res.NumInterfaces())
	}
	for _, l := range lines[:5] {
		if len(strings.Fields(l)) != 3 {
			t.Fatalf("bad annotation line %q", l)
		}
	}
}

func TestConnectedAS(t *testing.T) {
	res := runFull(t, Options{})
	links := res.InterdomainLinks()
	if len(links) == 0 {
		t.Fatal("no links")
	}
	// At least one far address should have a connected-AS annotation.
	found := false
	for _, l := range links {
		if _, ok := res.ConnectedAS(l.FarAddr); ok {
			found = true
			break
		}
	}
	if !found {
		t.Error("no connected-AS annotations on link far addresses")
	}
}

func TestAblationOptionsRun(t *testing.T) {
	// Every ablation switch must at least run cleanly end to end.
	for _, opts := range []Options{
		{DisableLastHopDestinations: true},
		{DisableThirdParty: true},
		{DisableReallocated: true},
		{DisableExceptions: true},
		{DisableHiddenAS: true},
		{MaxIterations: 2},
	} {
		res := runFull(t, opts)
		if res.NumRouters() == 0 {
			t.Errorf("ablation %+v produced empty result", opts)
		}
	}
}

func TestFilterTracesByVP(t *testing.T) {
	p, n := dataset(t)
	vps := n.VPNames()
	if len(vps) < 2 {
		t.Skip("too few VPs")
	}
	out := filepath.Join(t.TempDir(), "subset.jsonl")
	kept, err := FilterTracesByVP(p.Traceroutes, out, func(vp string) bool {
		return vp == vps[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	if kept == 0 {
		t.Fatal("nothing kept")
	}
	res, err := Run(Sources{
		TraceroutePaths: []string{out},
		BGPRIBPaths:     []string{p.RIB},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumInterfaces() == 0 {
		t.Error("filtered archive produced nothing")
	}
	// Binary output round trip.
	outBin := filepath.Join(t.TempDir(), "subset.bin")
	keptBin, err := FilterTracesByVP(p.Traceroutes, outBin, func(vp string) bool {
		return vp == vps[0]
	})
	if err != nil || keptBin != kept {
		t.Fatalf("binary filter: kept=%d err=%v", keptBin, err)
	}
}

// TestRunWithMRTRIB: the .mrt RIB form produces the same inference as
// the text RIB.
func TestRunWithMRTRIB(t *testing.T) {
	p, _ := dataset(t)
	text, err := Run(Sources{
		TraceroutePaths: []string{p.Traceroutes},
		BGPRIBPaths:     []string{p.RIB},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mrtRes, err := Run(Sources{
		TraceroutePaths: []string{p.Traceroutes},
		BGPRIBPaths:     []string{p.RIBMRT},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tl := text.InterdomainLinks()
	ml := mrtRes.InterdomainLinks()
	if len(tl) != len(ml) {
		t.Fatalf("text RIB: %d links, MRT RIB: %d links", len(tl), len(ml))
	}
	for i := range tl {
		if tl[i].NearAS != ml[i].NearAS || tl[i].FarAS != ml[i].FarAS || tl[i].FarAddr != ml[i].FarAddr {
			t.Fatalf("link %d differs: %+v vs %+v", i, tl[i], ml[i])
		}
	}
}

// TestRunWithPrefix2AS: the precomputed origin mapping plus an explicit
// relationship file substitutes for the raw RIB.
func TestRunWithPrefix2AS(t *testing.T) {
	p, _ := dataset(t)
	res, err := Run(Sources{
		TraceroutePaths:     []string{p.Traceroutes},
		Prefix2ASPaths:      []string{p.Prefix2AS},
		ASRelationshipPaths: []string{p.Relationships},
		AliasNodePaths:      []string{p.Aliases},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InterdomainLinks()) == 0 {
		t.Fatal("no links from prefix2as input")
	}
	// Compare against the text-RIB run: the origin data is identical
	// (modulo MOAS dominant-origin selection), so results should agree
	// on the vast majority of links.
	text, err := Run(Sources{
		TraceroutePaths:     []string{p.Traceroutes},
		BGPRIBPaths:         []string{p.RIB},
		ASRelationshipPaths: []string{p.Relationships},
		AliasNodePaths:      []string{p.Aliases},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := len(res.InterdomainLinks()), len(text.InterdomainLinks())
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	if diff*10 > b {
		t.Errorf("prefix2as run diverges: %d vs %d links", a, b)
	}
}
