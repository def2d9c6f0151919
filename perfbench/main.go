// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the packet core, checks every output against its own
// oracle, and prints one JSON result line:
//
//	perfbench -workload n4-churn -seed 1 -seconds 10 -trace 0
//
// Workload n4-churn drives the pepcd binary (built from the tree, path
// in -pepcd) over loopback sockets; core-250k hosts a node in-process.
// With -trace 1 the run also feeds the same inputs to an in-process node
// whose layer calls are wrapped in spans, and reports per-layer metrics
// instead of end-to-end ones. See README.md for the workloads, metrics
// and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	pepcd    string
	outDir   string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's outcome: the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload measures in one run: end-to-end metrics,
// operation counts, and any output that broke an invariant.
type outcome struct {
	e2e       map[string]metric
	layers    map[string]metric
	attempted int64
	failed    int64
	// faults lists invariant violations not accounted as failed
	// operations; any makes the run incorrect.
	faults []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layers: map[string]metric{}}
}

func (o *outcome) set(name string, v float64, unit string) { o.e2e[name] = metric{v, unit} }

func (o *outcome) layer(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	o.layers[name] = metric{v, unit}
}

func (o *outcome) fault(format string, args ...any) {
	if len(o.faults) < 20 {
		o.faults = append(o.faults, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) (*outcome, error){
	"n4-churn":  runN4Churn,
	"core-250k": runCore250K,
}

// e2eNames are the end-to-end metrics every -trace 0 run reports;
// BENCHMARK.json lists the same.
var e2eNames = []string{"setup_s", "ops_per_s", "lat_p50_us", "lat_p99_us", "cpu_us_per_op", "peak_rss_mb"}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: n4-churn or core-250k")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced replica and reports per-layer metrics")
	flag.StringVar(&cfg.pepcd, "pepcd", "", "pepcd binary (built from the tree)")
	flag.StringVar(&cfg.outDir, "out", ".bench_out", "directory for traces and logs")
	flag.Parse()
	cfg.trace = trace != 0

	run, ok := workloads[cfg.workload]
	if !ok {
		fatalf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	// The generator never runs more parallel loops than the host has
	// processors.
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := oracleSelfTest(); err != nil {
		fatalf("oracle self-test: %v", err)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatalf("%v", err)
	}

	b0, i0, s0 := hostCPU()
	out, err := run(cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	if b1, i1, s1 := hostCPU(); b1+i1+s1 > b0+i0+s0 {
		all := float64(b1 + i1 + s1 - b0 - i0 - s0)
		logf("host CPU over the run: %.0f%% busy, %.0f%% idle, %.0f%% stolen by the hypervisor",
			100*float64(b1-b0)/all, 100*float64(i1-i0)/all, 100*float64(s1-s0)/all)
	}
	res := result{Correct: len(out.faults) == 0, Attempted: out.attempted, Failed: out.failed}
	for _, f := range out.faults {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
	}
	if cfg.trace {
		res.Metrics = map[string]metric{}
		for _, name := range layerNames() {
			m, ok := out.layers[name]
			if !ok {
				m = metric{0, layerUnits[name]}
			}
			res.Metrics[name] = m
		}
	} else {
		res.Metrics = out.e2e
		for _, name := range e2eNames {
			if _, ok := res.Metrics[name]; !ok {
				fatalf("metric %s not measured", name)
			}
		}
	}
	if res.Attempted < 1 {
		fatalf("no operation attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// tail reports a latency distribution as p50 and p99, refusing a p99
// with fewer than ten samples beyond it.
func tail(samples []float64) (p50, p99 float64, err error) {
	if len(samples) < 1000 {
		return 0, 0, fmt.Errorf("%d latency samples; p99 needs at least 1000", len(samples))
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return percentile(s, 50), percentile(s, 99), nil
}

// groupedTail splits time-ordered samples into contiguous groups of
// tailGroup samples (the last group takes the remainder) and returns the
// medians of the groups' p50 and p99: a stall of the shared host then
// moves the groups it falls in, not the run's figure.
func groupedTail(samples []float64) (p50, p99 float64, err error) {
	groups := len(samples) / tailGroup
	if groups < 1 {
		return tail(samples)
	}
	var p50s, p99s []float64
	for g := 0; g < groups; g++ {
		end := (g + 1) * tailGroup
		if g == groups-1 {
			end = len(samples)
		}
		a, b, err := tail(samples[g*tailGroup : end])
		if err != nil {
			return 0, 0, err
		}
		p50s = append(p50s, a)
		p99s = append(p99s, b)
	}
	return median(p50s), median(p99s), nil
}

// tailGroup is the size of one groupedTail group: the fewest samples
// that leave ten beyond the p99.
const tailGroup = 1000

// median of a small set of values.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
