package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The comparator: reads two sets of run outputs and prints, for each
// workload and metric, the median and quartiles of each side, flagging
// every end-to-end difference beyond the metric's bound. A set is a
// directory of files named <workload>.<anything>.out, each holding one
// run's standard output (perfbench/runset.sh writes them).

// benchFile is the part of BENCHMARK.json the comparator reads.
type benchFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
}

// quartiles returns Python's statistics.quantiles(vs, n=4) (the default
// "exclusive" method) and statistics.median(vs).
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med = s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return q(1), med, q(3)
}

// runSet is one side: per workload, per metric, the values of its runs,
// plus attempted and failed totals.
type runSet struct {
	values            map[string]map[string][]float64
	runs              map[string]int
	attempted, failed map[string]int64
}

func loadSet(dir string) (*runSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.out"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no *.out run outputs", dir)
	}
	rs := &runSet{values: map[string]map[string][]float64{}, runs: map[string]int{},
		attempted: map[string]int64{}, failed: map[string]int64{}}
	for _, f := range files {
		workload := strings.SplitN(filepath.Base(f), ".", 2)[0]
		res, err := lastResult(f)
		if err != nil {
			return nil, err
		}
		if !res.Correct {
			return nil, fmt.Errorf("%s: run reports correct=false", f)
		}
		if rs.values[workload] == nil {
			rs.values[workload] = map[string][]float64{}
		}
		for name, m := range res.Metrics {
			rs.values[workload][name] = append(rs.values[workload][name], m.Value)
		}
		rs.runs[workload]++
		rs.attempted[workload] += res.Attempted
		rs.failed[workload] += res.Failed
	}
	return rs, nil
}

// lastResult parses the JSON object on the last non-empty line of a run
// output.
func lastResult(path string) (result, error) {
	var res result
	f, err := os.Open(path)
	if err != nil {
		return res, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return res, fmt.Errorf("%s: %w", path, err)
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return res, nil
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] SET_A SET_B")
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 2
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "compare: %s: %v\n", *benchPath, err)
		return 2
	}
	a, err := loadSet(fs.Arg(0))
	if err == nil {
		var b *runSet
		if b, err = loadSet(fs.Arg(1)); err == nil {
			flags := compareSets(os.Stdout, bf.EndToEnd, a, b)
			if flags > 0 {
				fmt.Printf("\n%d flag(s)\n", flags)
				return 1
			}
			fmt.Println("\nno flags")
			return 0
		}
	}
	fmt.Fprintf(os.Stderr, "compare: %v\n", err)
	return 2
}

// compareSets prints the table and returns the number of flags raised:
// an end-to-end median worse on B than on A by more than the bound, a
// quartile spread wider than the bound on either side (setup_s
// excepted: one cold set-up per run is compared by median only), or a
// different share of failed operations.
func compareSets(w *os.File, defs []metricDef, a, b *runSet) int {
	bounds := map[string]metricDef{}
	for _, d := range defs {
		bounds[d.Name] = d
	}
	workloads := map[string]bool{}
	for wl := range a.values {
		workloads[wl] = true
	}
	for wl := range b.values {
		workloads[wl] = true
	}
	var names []string
	for wl := range workloads {
		names = append(names, wl)
	}
	sort.Strings(names)
	flags := 0
	for _, wl := range names {
		fmt.Fprintf(w, "\n%s (runs: A %d, B %d)\n", wl, a.runs[wl], b.runs[wl])
		fmt.Fprintf(w, "  %-24s %12s %12s %12s %7s | %12s %12s %12s %7s | %7s %s\n",
			"metric", "A q1", "A median", "A q3", "spread", "B q1", "B median", "B q3", "spread", "B/A-1", "")
		metricNames := map[string]bool{}
		for n := range a.values[wl] {
			metricNames[n] = true
		}
		for n := range b.values[wl] {
			metricNames[n] = true
		}
		var ms []string
		for n := range metricNames {
			ms = append(ms, n)
		}
		sort.Strings(ms)
		for _, n := range ms {
			a1, am, a3 := quartiles(a.values[wl][n])
			b1, bm, b3 := quartiles(b.values[wl][n])
			as, bs := (a3-a1)/am, (b3-b1)/bm
			change := bm/am - 1
			var notes []string
			note := func(flag bool, format string, args ...any) {
				notes = append(notes, fmt.Sprintf(format, args...))
				if flag {
					flags++
				}
			}
			if d, ok := bounds[n]; ok {
				worse := change
				if d.Better == "higher" {
					worse = -change
				}
				if worse > d.Bound {
					note(true, "WORSE beyond bound %.2f", d.Bound)
				}
				switch {
				case n == "setup_s":
				case as > d.Bound || bs > d.Bound:
					note(true, "SPREAD beyond bound %.2f", d.Bound)
				case as > d.Bound/3 || bs > d.Bound/3:
					note(false, "spread beyond bound/3")
				}
			}
			fmt.Fprintf(w, "  %-24s %12.5g %12.5g %12.5g %6.1f%% | %12.5g %12.5g %12.5g %6.1f%% | %+6.1f%% %s\n",
				n, a1, am, a3, 100*as, b1, bm, b3, 100*bs, 100*change, strings.Join(notes, "; "))
		}
		fa := float64(a.failed[wl]) / float64(a.attempted[wl])
		fb := float64(b.failed[wl]) / float64(b.attempted[wl])
		fmt.Fprintf(w, "  failed share: A %d/%d, B %d/%d\n", a.failed[wl], a.attempted[wl], b.failed[wl], b.attempted[wl])
		if fa != fb {
			fmt.Fprintln(w, "  FAILED SHARE DIFFERS")
			flags++
		}
	}
	return flags
}
