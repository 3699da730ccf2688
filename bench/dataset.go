package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/alias"
	"repro/internal/asrel"
	"repro/internal/bgp"
	"repro/internal/ckpt"
	"repro/internal/eval"
	"repro/internal/mrt"
	"repro/internal/rir"
	"repro/internal/topo"
	"repro/internal/traceroute"
)

// campaign is one generated measurement dataset held in memory: the
// traces in campaign order, how they split into a base corpus and
// delta batches, and the Internet the context files are exported from.
type campaign struct {
	in      *topo.Internet
	traces  []*traceroute.Trace
	base    []*traceroute.Trace
	batches [numBatches][]*traceroute.Trace
	aliases *alias.Sets
}

// generate builds w's dataset from seed. Everything downstream of seed
// is deterministic: the same (workload, seed) yields the same campaign.
func generate(w workload, seed int64) (*campaign, error) {
	in, err := topo.Generate(w.topology(seed))
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", w.name, err)
	}
	var vps []topo.VP
	if w.vps > 0 {
		vps = in.SelectVPs(w.vps, nil)
		if w.holdOutVPs && len(vps) <= numBatches {
			return nil, fmt.Errorf("generate %s: only %d VPs available", w.name, len(vps))
		}
	} else {
		vp, ok := in.VPIn(in.GroundTruthNetworks()["Tier1"])
		if !ok {
			return nil, fmt.Errorf("generate %s: no VP inside the Tier1 network", w.name)
		}
		vps = []topo.VP{vp}
	}
	c := &campaign{in: in}
	c.traces = in.CollectCampaign(vps, in.Targets(), 4096)
	if w.holdOutVPs {
		c.splitByVP(vps[len(vps)-numBatches:])
	} else {
		c.splitByStride(w.stride)
	}
	for i, b := range c.batches {
		if len(b) == 0 {
			return nil, fmt.Errorf("generate %s: delta batch %d is empty", w.name, i+1)
		}
	}
	addrs := eval.ObservedAddrs(c.traces)
	p := in.Prober()
	c.aliases = alias.Merge(alias.MIDAR(p, addrs, alias.MIDAROptions{}), alias.Iffinder(p, addrs))
	return c, nil
}

// splitByStride is the narrow split: every stride-th trace is held out
// and dealt round-robin into the batch files, so each batch touches
// every VP and a thin slice of the graph.
func (c *campaign) splitByStride(stride int) {
	dealt := 0
	for i, t := range c.traces {
		if i%stride == 0 {
			c.batches[dealt%numBatches] = append(c.batches[dealt%numBatches], t)
			dealt++
		} else {
			c.base = append(c.base, t)
		}
	}
}

// splitByVP is the broad split: each held-out VP's whole campaign is
// one batch, so absorbing it dirties that VP's entire view.
func (c *campaign) splitByVP(heldOut []topo.VP) {
	slot := make(map[string]int, len(heldOut))
	for i, vp := range heldOut {
		slot[vp.Name] = i
	}
	for _, t := range c.traces {
		if i, ok := slot[t.VP]; ok {
			c.batches[i] = append(c.batches[i], t)
		} else {
			c.base = append(c.base, t)
		}
	}
}

// dataset names the files one campaign was written to. The programs
// under test receive only these paths.
type dataset struct {
	full    string
	base    string
	batches []string
	rib     string
	rir     string
	ixp     string
	rels    string
	aliases string

	traces int
	bytes  int64
}

// contextArgs are the non-trace input flags shared by cmd/bdrmapit and
// cmd/bdrmapit-ingest.
func (d *dataset) contextArgs() []string {
	return []string{"-rib", d.rib, "-rir", d.rir, "-ixp", d.ixp, "-rels", d.rels, "-aliases", d.aliases}
}

// write materializes the campaign under dir in the requested trace/RIB
// encoding. Delta batches are always JSONL: the intake accepts nothing
// else.
func (c *campaign) write(dir string, binary bool) (*dataset, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ext, ribName := ".jsonl", "rib.txt"
	if binary {
		ext, ribName = ".bin", "rib.mrt"
	}
	d := &dataset{
		full:    filepath.Join(dir, "full"+ext),
		base:    filepath.Join(dir, "base"+ext),
		rib:     filepath.Join(dir, ribName),
		rir:     filepath.Join(dir, "delegated-extended.txt"),
		ixp:     filepath.Join(dir, "ixp-prefixes.txt"),
		rels:    filepath.Join(dir, "as-rel.txt"),
		aliases: filepath.Join(dir, "nodes.txt"),
		traces:  len(c.traces),
	}
	if err := writeTraces(d.full, c.traces, binary); err != nil {
		return nil, err
	}
	if err := writeTraces(d.base, c.base, binary); err != nil {
		return nil, err
	}
	for i, b := range c.batches {
		p := filepath.Join(dir, fmt.Sprintf("batch%d.jsonl", i+1))
		if err := writeTraces(p, b, false); err != nil {
			return nil, err
		}
		d.batches = append(d.batches, p)
	}
	files := []struct {
		path string
		fill func(io.Writer) error
	}{
		{d.rib, func(w io.Writer) error {
			if binary {
				return mrt.Write(w, c.in.Routes)
			}
			return bgp.WriteRoutes(w, c.in.Routes)
		}},
		{d.rir, func(w io.Writer) error { return rir.WriteRecords(w, "simrir", c.in.RIRRecords()) }},
		{d.ixp, c.in.IXPPrefixes.WriteList},
		{d.rels, asrel.Infer(c.in.ASPaths()).Write},
		{d.aliases, c.aliases.WriteNodes},
	}
	for _, f := range files {
		if err := ckpt.AtomicWrite(f.path, f.fill); err != nil {
			return nil, fmt.Errorf("writing %s: %w", f.path, err)
		}
	}
	fi, err := os.Stat(d.full)
	if err != nil {
		return nil, err
	}
	d.bytes = fi.Size()
	return d, nil
}

func writeTraces(path string, traces []*traceroute.Trace, binary bool) error {
	err := ckpt.AtomicWrite(path, func(w io.Writer) error {
		if binary {
			bw := traceroute.NewBinaryWriter(w)
			for _, t := range traces {
				if err := bw.Write(t); err != nil {
					return err
				}
			}
			return bw.Flush()
		}
		jw := traceroute.NewJSONLWriter(w)
		for _, t := range traces {
			if err := jw.Write(t); err != nil {
				return err
			}
		}
		return jw.Flush()
	})
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// digestDir hashes every regular file under dir, names and contents, in
// name order: the determinism test's notion of "byte-identical files".
func digestDir(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	h := sha256.New()
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		fmt.Fprintf(h, "%s\x00", e.Name())
		sum, err := digestFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00", sum)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func digestFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
