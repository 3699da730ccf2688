package core_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/prov"
)

// recordedProvenance holds the ckpt.Fingerprint of every artifact
// TestProvenanceMatchesRecorded produces, recorded while the loop still
// collected provenance as it went: the golden scenario, and the long-tail
// fixture run in full, capped at every iteration k and cancelled at the
// end of every iteration k. The fixture ends in a cycle of length 2, so
// its last two states differ: an artifact explaining the wrong one of
// them shows up here.
var recordedProvenance = map[string]string{
	"golden":    "618a0c2dd322575e",
	"long-tail": "f9bc6700992eb42d",

	"capped/1":  "8feff01b30810e69",
	"capped/2":  "fb9721509084e715",
	"capped/3":  "f3cb705abf62ae22",
	"capped/4":  "918f7f37ba78a051",
	"capped/5":  "2c7aa4e5113ce0ec",
	"capped/6":  "018297f0cbb08d92",
	"capped/7":  "7f53eff0df65600c",
	"capped/8":  "13e94317e44136a7",
	"capped/9":  "b4f822545a831997",
	"capped/10": "7821b592e96c5f75",
	"capped/11": "598693c9be74ad1f",
	"capped/12": "48dca938eb3a5066",
	"capped/13": "1b9b812da29b327c",
	"capped/14": "1c45b461d4db496d",
	"capped/15": "f4fec79d8c2d6a99",
	"capped/16": "b9f77dcd668920ff",
	"capped/17": "3c1b46c66d3988aa",

	"cancelled/1":  "be4e48246f5b9684",
	"cancelled/2":  "3d1fc34f83eaf821",
	"cancelled/3":  "d63df364ca672e5c",
	"cancelled/4":  "bf0a0556910e9db5",
	"cancelled/5":  "e497b473095d5afa",
	"cancelled/6":  "83820c842724b12b",
	"cancelled/7":  "08472b7878945aae",
	"cancelled/8":  "eda70ae2d3760360",
	"cancelled/9":  "d3050a4c2a279f2e",
	"cancelled/10": "5ad6b719b34d2205",
	"cancelled/11": "5d03df4e7d1e26ab",
	"cancelled/12": "3cc50190a841202c",
	"cancelled/13": "b4b30cd25d9b4bfa",
	"cancelled/14": "7f3aed31806b7f1b",
	"cancelled/15": "0c4e8609cfa77e13",
	"cancelled/16": "e0fec0bfe8c3e681",
	"cancelled/17": "e76981120eb214f0",
}

// TestProvenanceMatchesRecorded holds the provenance artifact, byte for
// byte, to the one the engine wrote before it was derived from the run's
// change sets.
func TestProvenanceMatchesRecorded(t *testing.T) {
	digest := func(name string, a *prov.Artifact) string {
		t.Helper()
		var buf bytes.Buffer
		if err := prov.Encode(&buf, a); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return fmt.Sprintf("%016x", ckpt.Fingerprint(buf.Bytes()))
	}
	got := map[string]string{"golden": digest("golden", core.GoldenProvenance(t))}
	ds := longTail(t)
	g := buildGraph(ds, ds.Traces)
	full := mustRun(t, g, ds.Rels, core.Options{Workers: 1, Provenance: true})
	if full.CycleLength != 2 {
		t.Fatalf("the fixture stops with cycle length %d; it is here for its cycle of 2", full.CycleLength)
	}
	got["long-tail"] = digest("long-tail", full.Provenance)
	for k := 1; k < full.Iterations; k++ {
		g.ResetAnnotations()
		capped := mustRun(t, g, ds.Rels, core.Options{Workers: 1, MaxIterations: k, Provenance: true})
		got[fmt.Sprintf("capped/%d", k)] = digest("capped", capped.Provenance)

		ctx, cancel := context.WithCancel(context.Background())
		g.ResetAnnotations()
		res, err := core.RunContext(ctx, g, ds.Rels, core.CancelledAt(core.Options{Workers: 1, Provenance: true}, k, cancel))
		cancel()
		if err != nil || !res.Interrupted || res.Iterations != k {
			t.Fatalf("cancelled at %d: interrupted %v after %d iterations (%v)", k, res.Interrupted, res.Iterations, err)
		}
		got[fmt.Sprintf("cancelled/%d", k)] = digest("cancelled", res.Provenance)
	}
	for name, d := range got {
		if want, ok := recordedProvenance[name]; !ok || d != want {
			t.Errorf("%s: artifact digest %s, recorded %q", name, d, want)
		}
	}
	if len(got) != len(recordedProvenance) {
		t.Errorf("%d artifacts for %d recorded digests", len(got), len(recordedProvenance))
	}
}
