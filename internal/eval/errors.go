package eval

import (
	"sort"

	"repro/internal/asn"
	"repro/internal/core"
)

// ErrorClass labels why a router annotation went wrong, by the
// structural situation of the misannotated IR. The classes mirror the
// failure loci the paper discusses.
type ErrorClass string

// Error classes, from most to least specific.
const (
	// ErrLastHopEmptyDest: a last-hop IR whose interfaces were only seen
	// in Echo Replies (§5.1 — the paper notes no technique improves
	// these without more probing).
	ErrLastHopEmptyDest ErrorClass = "lasthop-empty-dest"
	// ErrLastHopWithDest: a last-hop IR despite destination evidence
	// (Algorithm 1 chose wrong).
	ErrLastHopWithDest ErrorClass = "lasthop-with-dest"
	// ErrThirdParty: the IR contains a router that sources replies from
	// a fixed off-path interface.
	ErrThirdParty ErrorClass = "third-party-router"
	// ErrHiddenAS: the true operator is a hidden transit AS (Fig. 12).
	ErrHiddenAS ErrorClass = "hidden-as"
	// ErrRealloc: the true operator uses reallocated address space.
	ErrRealloc ErrorClass = "reallocated-prefix"
	// ErrInvisibleOwner: the true operator's AS never appears among the
	// IR's interface origins (provider-addressed everything).
	ErrInvisibleOwner ErrorClass = "owner-not-in-origins"
	// ErrFalseMerge: the IR's interfaces truly belong to routers of
	// different operators (alias-resolution error).
	ErrFalseMerge ErrorClass = "false-alias-merge"
	// ErrOther: none of the above.
	ErrOther ErrorClass = "other"
)

// ErrorCensus counts misannotated IRs per class — the first diagnostic
// to reach for when accuracy drops on a new dataset.
type ErrorCensus struct {
	Total     int // IRs with a ground-truth operator
	Wrong     int
	PerClass  map[ErrorClass]int
	ClassList []ErrorClass // deterministic ordering of PerClass keys
}

// RunErrorCensus classifies every misannotated router of the standard
// inference run.
func RunErrorCensus(ds *Dataset) ErrorCensus {
	res := ds.RunBdrmapIT(nil, core.Options{})
	out := ErrorCensus{PerClass: make(map[ErrorClass]int)}
	for _, r := range res.Graph.Routers {
		var owners asn.SmallSet
		thirdParty := false
		hidden, realloc := false, false
		for _, i := range r.Interfaces {
			o := ds.In.OwnerASN(i.Addr)
			if o == asn.None {
				continue
			}
			owners.Add(o)
			tr := ds.In.RouterOf(i.Addr)
			if tr != nil && tr.ThirdPartyIface != nil {
				thirdParty = true
			}
			if a := ds.In.ASes[o]; a != nil {
				if a.Hidden {
					hidden = true
				}
				if a.ReallocFrom != nil {
					realloc = true
				}
			}
		}
		if owners.Len() == 0 {
			continue
		}
		out.Total++
		if owners.Len() == 1 && r.Annotation == owners[0] {
			continue
		}
		out.Wrong++
		var class ErrorClass
		switch {
		case owners.Len() > 1:
			class = ErrFalseMerge
		case r.LastHop && r.DestASes.Len() == 0:
			class = ErrLastHopEmptyDest
		case r.LastHop:
			class = ErrLastHopWithDest
		case thirdParty:
			class = ErrThirdParty
		case hidden:
			class = ErrHiddenAS
		case realloc:
			class = ErrRealloc
		case !r.OriginSet.Has(owners[0]):
			class = ErrInvisibleOwner
		default:
			class = ErrOther
		}
		out.PerClass[class]++
	}
	for c := range out.PerClass {
		out.ClassList = append(out.ClassList, c)
	}
	sort.Slice(out.ClassList, func(i, j int) bool {
		if out.PerClass[out.ClassList[i]] != out.PerClass[out.ClassList[j]] {
			return out.PerClass[out.ClassList[i]] > out.PerClass[out.ClassList[j]]
		}
		return out.ClassList[i] < out.ClassList[j]
	})
	return out
}
