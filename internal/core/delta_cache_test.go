package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/traceroute"
)

// deltaOutcome is everything a delta run decides that the digest cache
// could disturb: the seed, the dirty counts, and the committed state.
type deltaOutcome struct {
	seed        string
	gauges      string
	annotations string
}

// seedString renders a structural seed for comparison. The frontier is
// an unordered work-list (it is filled while ranging over link maps), so
// it is compared as a set.
func seedString(s *deltaSeed) string {
	frontier := slices.Clone(s.frontier)
	slices.Sort(frontier)
	return fmt.Sprint(s.rdirty, s.idirty, frontier, s.baseToMergedR, s.baseToMergedI, s.structRouters, s.structIfaces)
}

// TestStructDigestCacheChangesNothing runs the stacked continuous-ingest
// shape — full run, first absorb, second absorb, over the delta ≡ full
// suite's splits — twice: once handing each absorb the previous absorb's
// own graph object as its base (digests cached when that graph was the
// merged side, and carried through a whole refinement), once handing it
// a freshly rebuilt, never-digested copy. Seed sets, dirty counts and
// final annotations must be identical, and a cached vector must equal
// what digesting the graph afresh yields.
func TestStructDigestCacheChangesNothing(t *testing.T) {
	e, traces := campaign(t, 2018, 12)
	cuts := []int{len(traces) * 7 / 10, len(traces) * 17 / 20, len(traces)}
	build := func(tr []*traceroute.Trace) *Graph { return buildChunk(e, tr) }

	baseDir := t.TempDir()
	base := build(traces[:cuts[0]])
	opts := Options{Workers: 4}
	bopts := opts
	bopts.Checkpoint = &ckpt.Config{Dir: baseDir, InputDigest: 1}
	if res := Run(base, e.rels, bopts); !res.Converged {
		t.Fatal("base run did not converge; pick a different split")
	}
	baseState, err := ckpt.Load(baseDir)
	if err != nil {
		t.Fatal(err)
	}

	run := func(warm bool) []deltaOutcome {
		var out []deltaOutcome
		prev, st := base, baseState
		if !warm {
			prev = build(traces[:cuts[0]])
		}
		for k, cut := range cuts[1:] {
			merged := build(traces[:cut])
			seed := seedString(computeDeltaSeed(merged, prev))
			if !warm {
				// The seed computation above digested both graphs; start
				// the run itself from undigested ones too.
				merged = build(traces[:cut])
				prev = build(traces[:cuts[k]])
			}
			dir := t.TempDir()
			dopts := opts
			dopts.Recorder = obs.New()
			dopts.Checkpoint = &ckpt.Config{Dir: dir, InputDigest: uint64(2 + k)}
			res, err := RunDeltaContext(context.Background(), merged, prev, st, e.rels, dopts)
			if err != nil {
				t.Fatalf("absorb %d (warm=%v): %v", k+1, warm, err)
			}
			g := res.Report.Gauges
			out = append(out, deltaOutcome{
				seed: seed,
				gauges: fmt.Sprint(g["delta.struct_dirty_routers"], g["delta.struct_dirty_ifaces"],
					g["delta.dirty_routers"], g["delta.dirty_ifaces"]),
				annotations: dumpAnnotations(res),
			})

			// After a whole refinement over it, the merged graph's cached
			// digests are still what its structure digests to.
			cachedR, cachedI := merged.structDigests()
			fresh := build(traces[:cut])
			freshR, freshI := fresh.structDigests()
			if !slices.Equal(cachedR, freshR) || !slices.Equal(cachedI, freshI) {
				t.Errorf("absorb %d (warm=%v): cached digests differ from a fresh graph's", k+1, warm)
			}

			if st, err = ckpt.Load(dir); err != nil {
				t.Fatal(err)
			}
			prev = merged
			if !warm {
				prev = build(traces[:cut])
			}
		}
		return out
	}

	warm, cold := run(true), run(false)
	for k := range cold {
		if warm[k].seed != cold[k].seed {
			t.Errorf("absorb %d: structural seed differs with a warm digest cache", k+1)
		}
		if warm[k].gauges != cold[k].gauges {
			t.Errorf("absorb %d: dirty counts %s with a warm cache, %s cold", k+1, warm[k].gauges, cold[k].gauges)
		}
		if warm[k].annotations != cold[k].annotations {
			t.Errorf("absorb %d: annotations differ with a warm digest cache", k+1)
		}
	}
	full := build(traces)
	if want := dumpAnnotations(Run(full, e.rels, opts)); warm[len(warm)-1].annotations != want {
		t.Error("stacked delta run with a warm digest cache diverges from the from-scratch run")
	}
}
