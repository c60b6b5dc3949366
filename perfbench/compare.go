package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the compare command reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain reads two sets of run records (runs.jsonl files) and prints,
// for every end-to-end metric of every workload, each set's median and
// quartiles, the spread, and whether the second set's median is within
// the metric's bound of the first's in the worse direction.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ExitOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [--bench BENCHMARK.json] setA.jsonl setB.jsonl")
		return 2
	}
	var spec benchSpec
	b, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	sets := make([]map[string]map[string][]float64, 2)
	for i := range sets {
		if sets[i], err = loadSet(fs.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
	}
	var names []string
	for wl := range sets[0] {
		names = append(names, wl)
	}
	sort.Strings(names)
	disagree := 0
	fmt.Printf("%-20s %-14s %5s %12s %12s %12s %7s %12s %12s %12s %7s %8s  %s\n",
		"workload", "metric", "bound", "A q1", "A median", "A q3", "A iqr", "B q1", "B median", "B q3", "B iqr", "change", "verdict")
	for _, wl := range names {
		for _, mt := range spec.EndToEnd {
			a, bb := sets[0][wl][mt.Name], sets[1][wl][mt.Name]
			if len(a) == 0 || len(bb) == 0 {
				continue
			}
			qa, qb := quartiles(a), quartiles(bb)
			change := (qb[1] - qa[1]) / qa[1]
			worse := change
			if mt.Better == "higher" {
				worse = -change
			}
			verdict := "agree"
			if worse > mt.Bound {
				verdict = "WORSE beyond bound"
				disagree++
			}
			fmt.Printf("%-20s %-14s %5.2f %12.4g %12.4g %12.4g %6.1f%% %12.4g %12.4g %12.4g %6.1f%% %+7.1f%%  %s\n",
				wl, mt.Name, mt.Bound, qa[0], qa[1], qa[2], 100*(qa[2]-qa[0])/qa[1],
				qb[0], qb[1], qb[2], 100*(qb[2]-qb[0])/qb[1], 100*change, verdict)
		}
	}
	if disagree > 0 {
		return 1
	}
	return 0
}

// loadSet groups the untraced runs of a runs.jsonl file by workload and
// metric.
func loadSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Result.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// exclusive method), so the spreads printed here are the ones the
// benchmark's bounds were set from.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - 4*j
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
