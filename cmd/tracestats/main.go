// Command tracestats summarizes a traceroute archive: trace and VP
// counts, reply-type and stop-reason distributions, hop-count
// statistics, and address coverage against an optional RIB — the
// sanity pass to run before feeding a new archive to bdrmapit. (The
// paper's §1 recounts how anomalous inferences exposed corrupted M-Lab
// input; this tool is the first thing to point at such data.)
//
// Usage:
//
//	tracestats -traces FILE[,FILE...] [-rib FILE]
package main

import (
	"flag"
	"fmt"
	"log"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/bgp"
	"repro/internal/ip2as"
	"repro/internal/mrt"
	"repro/internal/netutil"
	"repro/internal/obs"
	"repro/internal/traceroute"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracestats: ")
	var (
		traces = flag.String("traces", "", "traceroute file(s), comma separated (required)")
		rib    = flag.String("rib", "", "optional RIB (text or .mrt) for origin coverage")
	)
	flag.Parse()
	if *traces == "" {
		log.Fatal("-traces is required")
	}
	rec := obs.New()

	var (
		nTraces  int
		vps      = map[string]int{}
		addrs    = map[netip.Addr]bool{}
		replies  = map[traceroute.ReplyType]int{}
		stops    = map[string]int{}
		hopTotal int
		hopMax   int
		special  int
		zeroHops int
	)
	visit := func(t *traceroute.Trace) error {
		nTraces++
		vps[t.VP]++
		stops[t.Stop.String()]++
		if len(t.Hops) == 0 {
			zeroHops++
		}
		if len(t.Hops) > hopMax {
			hopMax = len(t.Hops)
		}
		hopTotal += len(t.Hops)
		for _, h := range t.Hops {
			replies[h.Reply]++
			if netutil.IsSpecial(h.Addr) {
				special++
				continue
			}
			addrs[h.Addr] = true
		}
		return nil
	}
	for _, path := range strings.Split(*traces, ",") {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		_, err = traceroute.Read(path, f, visit)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("traces:            %d (%d empty)\n", nTraces, zeroHops)
	fmt.Printf("vantage points:    %d\n", len(vps))
	fmt.Printf("distinct addrs:    %d (+%d special/private hops)\n", len(addrs), special)
	if nTraces > 0 {
		fmt.Printf("hops per trace:    mean %.1f, max %d\n", float64(hopTotal)/float64(nTraces), hopMax)
	}
	fmt.Println("reply types:")
	for _, rt := range []traceroute.ReplyType{
		traceroute.TimeExceeded, traceroute.EchoReply, traceroute.DestUnreachable,
	} {
		fmt.Printf("  %-18s %d\n", rt, replies[rt])
	}
	fmt.Println("stop reasons:")
	var stopNames []string
	for s := range stops {
		stopNames = append(stopNames, s)
	}
	sort.Strings(stopNames)
	for _, s := range stopNames {
		fmt.Printf("  %-18s %d\n", s, stops[s])
	}

	if *rib != "" {
		f, err := os.Open(*rib)
		if err != nil {
			log.Fatal(err)
		}
		var routes []bgp.Route
		if strings.EqualFold(filepath.Ext(*rib), ".mrt") {
			routes, err = mrt.Read(f)
		} else {
			routes, err = bgp.ReadRoutes(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
		resolver := &ip2as.Resolver{Table: bgp.NewTable(routes)}
		list := make([]netip.Addr, 0, len(addrs))
		for a := range addrs {
			list = append(list, a)
		}
		cov := resolver.Measure(list)
		fmt.Printf("origin coverage:   %.2f%% of observed addresses match the RIB\n",
			100*cov.Fraction())
	}

	rep := rec.Report()
	fmt.Fprintf(os.Stderr, "tracestats: wall clock %s, peak rss %s\n",
		obs.FormatDuration(rep.WallNS), obs.FormatBytes(rep.PeakRSSBytes))
}
