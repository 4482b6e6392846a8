// Command perfbench is the repository benchmark. It runs one workload in
// this process, checks the program's outputs against values it computes
// itself, and prints every metric by name with its unit; the last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// run is repeated with spans recorded around each layer's calls and the
// metrics are the per-layer set (see README.md).
//
//	perfbench --workload echo_small --seed 1 --seconds 20 --trace 0
//	perfbench compare SET_A SET_B
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
}

// endToEnd and perLayer mirror BENCHMARK.json (a test keeps them equal).
// ef_p99_ms is measured and printed on every run but is not an
// end-to-end metric: its run-to-run spread on a shared 2-vCPU host is
// wider than a bound that would still catch a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.2},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_kb_per_op", "KB", "lower", 0.05},
	{"rss_peak_mb", "MB", "lower", 0.25},
	{"ef_p50_ms", "ms", "lower", 0.2},
	{"be_p50_ms", "ms", "lower", 0.2},
}

var perLayer = []metricDef{
	{Name: "giop.marshal_ns", Unit: "ns", Better: "lower"},
	{Name: "giop.marshal_allocs", Unit: "count", Better: "lower"},
	{Name: "giop.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "giop.decode_allocs", Unit: "count", Better: "lower"},
	{Name: "telemetry.record_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.record_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.invoke_us", Unit: "us", Better: "lower"},
	{Name: "wire.servant_us", Unit: "us", Better: "lower"},
	{Name: "wire.outside_servant_us", Unit: "us", Better: "lower"},
	{Name: "wire.server_queue_us", Unit: "us", Better: "lower"},
	{Name: "wire.write_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "wire.read_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "wire.bytes_out_per_op", Unit: "B", Better: "lower"},
	{Name: "wire.dials", Unit: "count", Better: "lower"},
	{Name: "pubsub.publish_us", Unit: "us", Better: "lower"},
	{Name: "pubsub.consumer_us", Unit: "us", Better: "lower"},
	{Name: "pubsub.outbox_depth_max", Unit: "count", Better: "lower"},
	{Name: "pubsub.reordered", Unit: "count", Better: "lower"},
	{Name: "sim.event_ns", Unit: "ns", Better: "lower"},
	{Name: "experiments.fig2_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig4_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig5_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig6_s", Unit: "s", Better: "lower"},
	{Name: "experiments.table1_s", Unit: "s", Better: "lower"},
	{Name: "experiments.table2_s", Unit: "s", Better: "lower"},
	{Name: "go.gc_cycles_per_kop", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "go.goroutines_peak", Unit: "count", Better: "lower"},
	{Name: "trace.ops_ratio", Unit: "ratio", Better: "higher"},
}

// metricSet collects metric values by name.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

// has reports whether every named metric is present.
func (m metricSet) has(names ...string) bool {
	for _, n := range names {
		if _, ok := m[n]; !ok {
			return false
		}
	}
	return true
}

// runConfig is what a workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	// warm is run, unmeasured, between set-up and the window.
	warm time.Duration
	// rec is non-nil in the traced run: the window is split into an
	// untraced half (for the overhead ratio) and a traced half.
	rec *recorder
}

// outcome is what a workload returns.
type outcome struct {
	attempted, failed int64
	metrics           metricSet

	mu sync.Mutex
	// problems lists every output check that failed.
	problems []string
	// bad is set with the first problem, for load loops to poll.
	bad atomic.Bool
}

// problem records a failed output check; load generators call it
// concurrently.
func (o *outcome) problem(format string, args ...any) {
	o.mu.Lock()
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
	o.mu.Unlock()
	o.bad.Store(true)
}

func (o *outcome) failedChecks() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.problems...)
}

type workload struct {
	run func(runConfig) (*outcome, error)
	// probe measures the workload's own layers briefly, for the traced
	// run of another workload that does not drive them.
	probe func() (metricSet, error)
	// shape is the GIOP frame the workload's layer probes marshal.
	shape func() frameShape
}

var workloads = map[string]workload{
	"echo_small":    {run: runEcho, probe: probeEcho, shape: echoShape},
	"pubsub_fanout": {run: runFanout, probe: probeFanout, shape: fanoutShape},
	"sim_paper":     {run: runSimPaper, probe: probeSimPaper, shape: simShape},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload: echo_small, pubsub_fanout or sim_paper")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	traced := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (echo_small, pubsub_fanout, sim_paper), --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, warm: time.Second}
	defs := endToEnd
	if *traced == 1 {
		cfg.rec = newRecorder()
		defs = perLayer
	}
	out, err := w.run(cfg)
	if err == nil && cfg.rec != nil {
		err = completeLayers(*name, w, out.metrics)
		if err == nil {
			path := filepath.Join("perfbench", "out", "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
			if err = cfg.rec.writeJSONL(path); err == nil {
				fmt.Printf("spans: %d recorded, %d written to %s\n", cfg.rec.total, len(cfg.rec.kept), path)
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	problems := out.failedChecks()
	res := result{Correct: len(problems) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metricOut)}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", *name, d.Name)
			os.Exit(1)
		}
		res.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	printHuman(out.metrics)
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", *name, p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printHuman prints every measured value, including reference figures
// that are not in the JSON result, one per line.
func printHuman(m metricSet) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %g\n", n, m[n])
	}
}
