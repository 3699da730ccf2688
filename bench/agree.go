package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// manifest is the part of BENCHMARK.json the agreement check reads: the
// end-to-end metrics with the bound each may worsen by.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// runAgreement measures whether the benchmark repeats. It makes two
// sets of runs back to back; a set is `runs` untraced runs of every
// workload, each with its own seed (the second set's seeds differ from
// the first's, so dataset variation is part of what is tested). For
// every workload × end-to-end metric it prints both sets' medians, how
// much worse the second is than the first, each set's quartile spread
// as a share of its median, and the metric's bound. It fails when a
// second median is worse than the first by more than the bound, or
// when a spread (other than setup_s's, which is one sample of three
// per run by construction) exceeds the bound.
func runAgreement(root string, only string, runs int, seconds float64) error {
	man, err := readManifest(root)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	start := time.Now()
	type key struct{ workload, metric string }
	var sets [2]map[key][]float64
	for set := range sets {
		sets[set] = make(map[key][]float64)
		for _, w := range man.Workloads {
			if only != "" && w.Name != only {
				continue
			}
			for i := 0; i < runs; i++ {
				seed := int64(set*runs + i + 1)
				res, err := runSelf(self, root, w.Name, seed, seconds)
				if err != nil {
					return err
				}
				if !res.Correct || res.Failed != 0 {
					return fmt.Errorf("%s seed %d: correct=%v failed=%d", w.Name, seed, res.Correct, res.Failed)
				}
				for _, e := range man.EndToEnd {
					v, ok := res.Metrics[e.Name]
					if !ok {
						return fmt.Errorf("%s seed %d: no %s in result", w.Name, seed, e.Name)
					}
					k := key{w.Name, e.Name}
					sets[set][k] = append(sets[set][k], v.Value)
				}
			}
		}
	}

	fmt.Printf("# two sets of %d runs per workload (seeds 1..%d, then %d..%d), --seconds %g, took %s\n",
		runs, runs, runs+1, 2*runs, seconds, time.Since(start).Round(time.Second))
	fmt.Printf("%-11s %-18s %-5s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "unit", "median A", "median B", "B worse", "spreadA", "spreadB", "bound", "verdict")
	bad := 0
	for _, w := range man.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		for _, e := range man.EndToEnd {
			a, b := sets[0][key{w.Name, e.Name}], sets[1][key{w.Name, e.Name}]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if e.Better == "higher" {
				worse = (ma - mb) / ma
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			if worse > e.Bound {
				verdict = "MEDIANS DISAGREE"
			} else if e.Name != "setup_s" && max(sa, sb) > e.Bound {
				verdict = "SPREAD OVER BOUND"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Printf("%-11s %-18s %-5s %12.5g %12.5g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				w.Name, e.Name, e.Unit, ma, mb, 100*worse, 100*sa, 100*sb, 100*e.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload × metric pair(s) outside their bound", bad)
	}
	fmt.Println("# every pair within its bound")
	return nil
}

// spread is the distance between the first and third quartile as a
// share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// runSelf makes one untraced run in a child process, as the driver
// would, and parses its result line.
func runSelf(self, root, workload string, seed int64, seconds float64) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	dec := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1])))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return nil, fmt.Errorf("%s seed %d: bad result line: %w", workload, seed, err)
	}
	return &res, nil
}
