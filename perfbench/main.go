// Command perfbench is the repository's benchmark. It drives one of three
// workloads through the public API from a single process, checks every
// output, and prints one JSON object as the last line of standard output:
//
//	perfbench --workload engine-dense|sweep-cold|svc-fork --seed N --seconds S --trace 0|1
//
// With --trace 0 the object carries the end-to-end metrics (wall time per
// sweep, first-cell latency, delivered person-days per second, peak RSS,
// set-up time). With --trace 1 it carries the per-layer metrics: the
// workload runs untraced and traced, and the same inputs are then driven
// step by step through each layer's exported functions. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// defaultSeed is the workload seed used when --seed is not given.
const defaultSeed = 1

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// work is a private scratch directory under the checkout, removed
	// when the run ends; traceDir keeps the span files a traced run
	// writes out.
	work     string
	traceDir string
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run reports: its operations, checked, and
// its metrics.
type outcome struct {
	attempted int
	failed    int
	// problems describes each failed operation (printed to stderr).
	problems []string
	metrics  map[string]metric
}

// check records one checked operation; a false ok counts it as failed.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// checkErr records one checked operation that failed if err is non-nil.
func (o *outcome) checkErr(err error, format string, args ...any) bool {
	o.check(err == nil, format+": %v", append(args, err)...)
	return err == nil
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) (*outcome, error){
	"engine-dense": runEngineDense,
	"sweep-cold":   runSweepCold,
	"svc-fork":     runSvcFork,
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: engine-dense, sweep-cold or svc-fork")
	seed := flag.Uint64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "how long the timed phase measures")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	runner, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		flag.Usage()
		return 2
	}
	base, err := filepath.Abs(".bench_build")
	if err == nil {
		err = os.MkdirAll(base, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg := config{
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		work:     work,
		traceDir: filepath.Join(base, "traces"),
	}
	out, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	for name, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// Only a run whose every sample failed divides by zero;
			// its failures are already counted.
			out.metrics[name] = metric{Value: 0, Unit: m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, out.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// tail is the sample tail the benchmark may report: the 90th percentile
// when at least ten samples lie beyond it (n ≥ 100), otherwise the
// median — a run with fewer samples does not resolve a tail.
func tail(xs []float64) float64 {
	if len(xs) >= 100 {
		return quantile(xs, 0.9)
	}
	return quantile(xs, 0.5)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// medianSetup runs a set-up n times and returns the median wall time;
// every attempt but the last is torn down with the returned release.
func medianSetup(n int, setup func() (release func(), err error)) (float64, error) {
	var walls []float64
	for i := range n {
		start := time.Now()
		release, err := setup()
		walls = append(walls, time.Since(start).Seconds())
		if err != nil {
			return 0, err
		}
		if i < n-1 && release != nil {
			release()
		}
	}
	return quantile(walls, 0.5), nil
}
