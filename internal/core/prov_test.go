package core

import (
	"bytes"
	"context"
	"net/netip"
	"reflect"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/prov"
)

func encodeArtifact(t *testing.T, a *prov.Artifact) []byte {
	t.Helper()
	if a == nil {
		t.Fatal("run produced no provenance artifact")
	}
	var buf bytes.Buffer
	if err := prov.Encode(&buf, a); err != nil {
		t.Fatalf("prov.Encode: %v", err)
	}
	return buf.Bytes()
}

// GoldenProvenance is the golden scenario's artifact at workers 1, and
// CancelledAt opts with cancel called at the end of iteration k: both
// for the fixtures only the external test package can build.
func GoldenProvenance(t *testing.T) *prov.Artifact {
	return goldenEnv(t).run(Options{Workers: 1, Provenance: true}).Provenance
}

func CancelledAt(opts Options, k int, cancel func()) Options {
	opts.hookIterEnd = func(iter int) {
		if iter == k {
			cancel()
		}
	}
	return opts
}

// TestProvenanceAnnotationEquivalence is the tentpole's first gate:
// collecting provenance must not change a single annotation, at any
// worker count. The records are written to, never read, so the proof is
// a byte comparison of the serialized state.
func TestProvenanceAnnotationEquivalence(t *testing.T) {
	want := dumpAnnotations(goldenEnv(t).run(Options{Workers: 1}))
	for _, workers := range []int{1, 4, 8} {
		for _, provOn := range []bool{false, true} {
			res := goldenEnv(t).run(Options{Workers: workers, Provenance: provOn})
			if got := dumpAnnotations(res); got != want {
				t.Errorf("workers=%d provenance=%v: annotations diverge\n--- got ---\n%s--- want ---\n%s",
					workers, provOn, got, want)
			}
			if provOn && res.Provenance == nil {
				t.Errorf("workers=%d: Provenance nil with Options.Provenance set", workers)
			}
			if !provOn && res.Provenance != nil {
				t.Errorf("workers=%d: Provenance collected without opting in", workers)
			}
		}
	}
}

// TestProvenanceArtifactWorkerInvariant: the artifact is part of the
// engine's determinism contract — byte-identical at every worker count,
// exactly like the annotations it explains.
func TestProvenanceArtifactWorkerInvariant(t *testing.T) {
	want := encodeArtifact(t, goldenEnv(t).run(Options{Workers: 1, Provenance: true}).Provenance)
	for _, workers := range []int{4, 8} {
		got := encodeArtifact(t, goldenEnv(t).run(Options{Workers: workers, Provenance: true}).Provenance)
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: artifact bytes differ from workers=1", workers)
		}
	}
}

// TestProvenanceArtifactSanity checks the artifact's internal
// consistency on the golden scenario: every router is explained by a
// rule consistent with its kind, the recorded winner is the final
// annotation, and interface entries mirror the graph.
func TestProvenanceArtifactSanity(t *testing.T) {
	res := goldenEnv(t).run(Options{Workers: 4, Provenance: true})
	a := res.Provenance
	g := res.Graph

	if a.Iterations != res.Iterations || a.Converged != res.Converged || a.CycleLength != res.CycleLength {
		t.Errorf("artifact metadata (%d, %v, %d) != result (%d, %v, %d)",
			a.Iterations, a.Converged, a.CycleLength, res.Iterations, res.Converged, res.CycleLength)
	}
	if len(a.Routers) != len(g.Routers) || len(a.Ifaces) != len(g.Interfaces) {
		t.Fatalf("artifact sized %d routers/%d ifaces, graph has %d/%d",
			len(a.Routers), len(a.Ifaces), len(g.Routers), len(g.Interfaces))
	}
	lastHopRules, refineRules := 0, 0
	for i, rr := range a.Routers {
		r := g.Routers[i]
		if rr.Annotation != r.Annotation {
			t.Errorf("router %d: artifact annotation %v != graph %v", i, rr.Annotation, r.Annotation)
		}
		if rr.LastHop != r.LastHop {
			t.Errorf("router %d: LastHop mismatch", i)
		}
		if rr.Rule == prov.RuleNone {
			t.Errorf("router %d: no rule recorded", i)
		}
		if rr.Rule.LastHop() != r.LastHop {
			t.Errorf("router %d: rule %s inconsistent with LastHop=%v", i, rr.Rule, r.LastHop)
		}
		if rr.Winner != rr.Annotation {
			t.Errorf("router %d: recorded winner %v != annotation %v (rule %s)", i, rr.Winner, rr.Annotation, rr.Rule)
		}
		if r.LastHop {
			lastHopRules++
			if rr.Iter != 0 {
				t.Errorf("last-hop router %d: Iter=%d, want 0 (frozen in phase 2)", i, rr.Iter)
			}
		} else {
			refineRules++
		}
	}
	if lastHopRules == 0 || refineRules == 0 {
		t.Errorf("scenario lost coverage: %d last-hop, %d refined routers", lastHopRules, refineRules)
	}
	for i, f := range a.Ifaces {
		gi := g.Interface(f.Addr)
		if gi == nil {
			t.Fatalf("artifact iface %d (%s) not in graph", i, f.Addr)
		}
		if f.Annotation != gi.Annotation || f.Origin != gi.Origin {
			t.Errorf("iface %s: artifact (%v, %v) != graph (%v, %v)",
				f.Addr, f.Origin, f.Annotation, gi.Origin, gi.Annotation)
		}
		if int(f.Router) != gi.Router.ID {
			t.Errorf("iface %s: router index %d != graph router %d", f.Addr, f.Router, gi.Router.ID)
		}
		if f.Rule == prov.IfaceNone {
			t.Errorf("iface %s: no §6.2 branch recorded", f.Addr)
		}
	}
	// The golden scenario exercises both static (IXP/unannounced) and
	// vote-annotated interfaces.
	counts := map[prov.IfaceRule]int{}
	for _, f := range a.Ifaces {
		counts[f.Rule]++
	}
	if counts[prov.IfaceStatic] == 0 {
		t.Error("no static interfaces recorded (scenario has IXP + unannounced addresses)")
	}
	if counts[prov.IfaceStatic] == len(a.Ifaces) {
		t.Error("every interface recorded static; §6.2 branches not reaching the collector")
	}

	// The tally of the vote-majority border router (2.0.0.1 / 2.0.0.2
	// belong to a refined router) must carry real vote counts.
	f, ok := a.Lookup(netip.MustParseAddr("2.0.0.1"))
	if !ok {
		t.Fatal("2.0.0.1 missing from artifact")
	}
	rr := a.Routers[f.Router]
	if rr.Rule.LastHop() {
		t.Errorf("border router rule = %s; expected a refinement rule", rr.Rule)
	}
	if rr.WinnerVotes <= 0 {
		t.Errorf("border router has no recorded votes: %+v", rr.Record)
	}
}

// TestProvenanceResumeMatrix extends the durability guarantee to the
// artifact: resuming from the snapshot of ANY committed iteration — at
// a different worker count — must reproduce the uninterrupted run's
// provenance artifact byte for byte.
func TestProvenanceResumeMatrix(t *testing.T) {
	full := goldenEnv(t).run(Options{Workers: 1, Provenance: true})
	if !full.Converged {
		t.Fatal("golden scenario no longer converges; fix the fixture first")
	}
	want := encodeArtifact(t, full.Provenance)
	wantAnn := dumpAnnotations(full)
	total := full.Iterations

	for _, workers := range []int{1, 4} {
		resumeWorkers := 5 - workers
		for k := 1; k < total; k++ {
			dir := t.TempDir()
			if _, err := checkpointedRun(t, workers, Options{
				MaxIterations: k,
				Provenance:    true,
				Checkpoint:    &ckpt.Config{Dir: dir},
			}); err != nil {
				t.Fatalf("workers=%d k=%d: capped run: %v", workers, k, err)
			}
			res, err := checkpointedResume(t, resumeWorkers, Options{
				Provenance: true,
				Checkpoint: &ckpt.Config{Dir: dir},
			})
			if err != nil {
				t.Fatalf("workers=%d k=%d: resume: %v", workers, k, err)
			}
			if got := dumpAnnotations(res); got != wantAnn {
				t.Errorf("workers=%d k=%d: resumed annotations diverge", workers, k)
			}
			if got := encodeArtifact(t, res.Provenance); !bytes.Equal(got, want) {
				t.Errorf("workers=%d k=%d: resumed provenance artifact differs from uninterrupted run's", workers, k)
			}
		}
	}
}

// TestProvenanceResumeConverged covers the short-circuit path: resuming
// a snapshot that already recorded convergence skips the loop entirely,
// so the artifact must come wholly from the restored records.
func TestProvenanceResumeConverged(t *testing.T) {
	full := goldenEnv(t).run(Options{Workers: 1, Provenance: true})
	want := encodeArtifact(t, full.Provenance)

	dir := t.TempDir()
	if _, err := checkpointedRun(t, 2, Options{
		Provenance: true,
		Checkpoint: &ckpt.Config{Dir: dir},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := checkpointedResume(t, 1, Options{
		Provenance: true,
		Checkpoint: &ckpt.Config{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFrom == 0 || !res.Converged {
		t.Fatalf("converged resume metadata: %+v", res)
	}
	if got := encodeArtifact(t, res.Provenance); !bytes.Equal(got, want) {
		t.Error("converged-resume artifact differs from uninterrupted run's")
	}
}

// TestProvenanceResumeOfPlainCheckpoint: a checkpoint does not depend on
// provenance, so a provenance resume of one written without it yields
// the uninterrupted run's artifact byte for byte, and a plain resume of a
// provenance run's checkpoint yields none.
func TestProvenanceResumeOfPlainCheckpoint(t *testing.T) {
	want := encodeArtifact(t, goldenEnv(t).run(Options{Workers: 1, Provenance: true}).Provenance)
	dir := t.TempDir()
	if _, err := checkpointedRun(t, 1, Options{
		MaxIterations: 2,
		Checkpoint:    &ckpt.Config{Dir: dir},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := checkpointedResume(t, 1, Options{
		Provenance: true,
		Checkpoint: &ckpt.Config{Dir: dir},
	})
	if err != nil {
		t.Fatalf("provenance resume of a plain checkpoint: %v", err)
	}
	if got := encodeArtifact(t, res.Provenance); !bytes.Equal(got, want) {
		t.Error("provenance resume of a plain checkpoint: artifact differs from the uninterrupted run's")
	}

	dir2 := t.TempDir()
	if _, err := checkpointedRun(t, 1, Options{
		MaxIterations: 2,
		Provenance:    true,
		Checkpoint:    &ckpt.Config{Dir: dir2},
	}); err != nil {
		t.Fatal(err)
	}
	res, err = checkpointedResume(t, 1, Options{
		Checkpoint: &ckpt.Config{Dir: dir2},
	})
	if err != nil {
		t.Fatalf("plain resume of provenance checkpoint: %v", err)
	}
	if res.Provenance != nil {
		t.Error("plain resume produced an artifact")
	}
}

// TestProvenanceResumeBelowItsState: a provenance resume that stops
// before its state's iteration, capped or cancelled there, yields the
// artifact of a fresh run stopped the same way, and neither a Checkpoint
// nor a write to the checkpoint directory.
func TestProvenanceResumeBelowItsState(t *testing.T) {
	dir := t.TempDir()
	full, err := checkpointedRun(t, 1, Options{Provenance: true, Checkpoint: &ckpt.Config{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	before := dirImage(t, dir)
	for k := 1; k < full.Iterations; k++ {
		res, err := checkpointedResume(t, 2, Options{MaxIterations: k, Provenance: true, Checkpoint: &ckpt.Config{Dir: dir}})
		if err != nil {
			t.Fatalf("k=%d: capped resume: %v", k, err)
		}
		capped := goldenEnv(t).run(Options{Workers: 1, MaxIterations: k, Provenance: true})
		if res.Iterations != k || res.Checkpoint != nil {
			t.Errorf("k=%d: capped resume: Iterations=%d Checkpoint=%v, want %d/nil", k, res.Iterations, res.Checkpoint != nil, k)
		}
		if !bytes.Equal(encodeArtifact(t, res.Provenance), encodeArtifact(t, capped.Provenance)) {
			t.Errorf("k=%d: capped resume's artifact differs from a fresh run capped there", k)
		}

		e := goldenEnv(t)
		ctx, cancel := context.WithCancel(context.Background())
		res, err = resumeRun(ctx, buildGraph(t, e, 2), e.rels, CancelledAt(Options{Workers: 2, Provenance: true, Checkpoint: &ckpt.Config{Dir: dir}}, k, cancel))
		cancel()
		if err != nil {
			t.Fatalf("k=%d: cancelled resume: %v", k, err)
		}
		if !res.Interrupted || res.Iterations != k || res.Checkpoint != nil {
			t.Errorf("k=%d: Interrupted=%v Iterations=%d Checkpoint=%v, want true/%d/nil",
				k, res.Interrupted, res.Iterations, res.Checkpoint != nil, k)
		}
		e = goldenEnv(t)
		ctx, cancel = context.WithCancel(context.Background())
		fresh, err := RunContext(ctx, buildGraph(t, e, 1), e.rels, CancelledAt(Options{Workers: 1, Provenance: true}, k, cancel))
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if dumpAnnotations(res) != dumpAnnotations(fresh) {
			t.Errorf("k=%d: cancelled resume's annotations differ from a fresh run cancelled there", k)
		}
		if !bytes.Equal(encodeArtifact(t, res.Provenance), encodeArtifact(t, fresh.Provenance)) {
			t.Errorf("k=%d: cancelled resume's artifact differs from a fresh run cancelled there", k)
		}
		if after := dirImage(t, dir); !reflect.DeepEqual(after, before) {
			t.Errorf("k=%d: the resume wrote to its checkpoint directory", k)
		}
	}
}

// TestProvenanceInterruptedConsistent: after a mid-run cancellation the
// artifact must explain the committed (rolled-back) annotations, not
// the aborted iteration's — the provenance analogue of the engine's
// cancellation-equivalence guarantee.
func TestProvenanceInterruptedConsistent(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := goldenEnv(t)
		g := buildGraph(t, e, workers)
		ctx, cancel := context.WithCancel(context.Background())
		opts := Options{Workers: workers, Provenance: true}
		opts.hookIterEnd = func(iter int) {
			if iter == 2 {
				cancel()
			}
		}
		res, err := RunContext(ctx, g, e.rels, opts)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Interrupted {
			t.Fatalf("workers=%d: run not interrupted", workers)
		}
		a := res.Provenance
		if a == nil || !a.Interrupted {
			t.Fatalf("workers=%d: artifact missing or not marked interrupted", workers)
		}
		for i, rr := range a.Routers {
			if rr.Annotation != g.Routers[i].Annotation {
				t.Errorf("workers=%d router %d: artifact annotation %v != committed %v",
					workers, i, rr.Annotation, g.Routers[i].Annotation)
			}
			if rr.Rule != prov.RuleNone && rr.Winner != rr.Annotation {
				t.Errorf("workers=%d router %d: winner %v explains a different AS than committed %v (rule %s)",
					workers, i, rr.Winner, rr.Annotation, rr.Rule)
			}
		}
	}
}
