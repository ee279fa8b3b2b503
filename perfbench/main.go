// Command perfbench is the repository benchmark. It runs one workload from
// a seed, checks every output against a direct-sum reference, and prints
// each metric with its unit and direction; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they are
// the per-layer ones, and the spans of the run are written under
// .bench_build/traces.
//
// Run it from the repository root through run.sh, which builds the
// benchmark and the shipped binaries first:
//
//	bash perfbench/run.sh --workload solve-64k --seed 1 --seconds 30 --trace 0
//
// README.md beside this file says why each workload exists and which
// layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how many cold set-ups one run times; setup_s is their
// median, so no single cold event decides it.
const setupReps = 5

// workload is one set of inputs and the loop that drives them.
type workload struct {
	name string
	why  string
	// tail is the fixed percentile latency_tail_ms reports. The steady
	// phase runs on past its time until the percentile has minBeyond
	// samples beyond it.
	tail float64
	// procs is the GOMAXPROCS of the process under test (0: every CPU).
	procs int
	run   func(e *env) (*result, error)
}

var workloads = []workload{
	{
		name:  "solve-64k",
		why:   "library solve, uniform N=65536 at auto depth 4 on every CPU: T2 and the near field split the work; sched and blas run parallel",
		tail:  0.80,
		procs: 0,
		run:   runSolve,
	},
	{
		name:  "simulate-plummer-8k.w1",
		why:   "Simulation.Step on a clustered Plummer N=8192 at GOMAXPROCS=1: forces and the serial symmetric near field, sched bypassed",
		tail:  0.75,
		procs: 1,
		run:   runSimulate,
	},
	{
		name:  "serve-1k-gw",
		why:   "nbodyd behind nbodygw, 2 closed-loop clients POST /v1/solve N=1024: decode, plan, admission, encode and the gateway hop dominate",
		tail:  0.95,
		procs: 0,
		run:   runServe,
	},
}

// env is what a workload run gets from the command line.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	tail    float64 // the workload's tail percentile
}

// binDir holds the nbodyd and nbodygw that run.sh builds.
var binDir = filepath.Join(".bench_build", "bin")

// rng returns the run's seeded source for everything but the systems
// themselves (target samples, request order).
func (e *env) rng() *rand.Rand { return rand.New(rand.NewSource(e.seed*7919 + 17)) }

// maxSteady caps the steady phase, so a run whose tail never fills still
// ends within three minutes.
const maxSteady = 120 * time.Second

// more reports whether the steady phase that began at start should run
// another operation, given n completed ones.
func (e *env) more(start time.Time, n int) bool {
	el := time.Since(start)
	return el < maxSteady && (el < e.seconds || n < samplesFor(e.tail))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload name")
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Int("seconds", 30, "steady-state measuring time")
		trace   = fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookup(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q (%v), seconds %d, trace %d\n", *name, err, *seconds, *trace)
		return 2
	}
	// The pool size of internal/sched is fixed at its first use, so the
	// worker count is set before anything solves.
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, tail: w.tail}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%d trace=%d\n", w.name, e.seed, *seconds, *trace)

	r, err := w.run(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	var vals []value
	if e.trace {
		vals, err = r.perLayerValues()
	} else {
		vals, err = r.endToEndValues(w.tail)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if e.trace {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-%d.json", w.name, e.seed))
		if err := r.spans.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(r.spans.spans), path)
	}
	if err := report(stdout, w, r, vals); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func lookup(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload, want one of %v", names)
}

// metricJSON is one entry of the final line's "metrics" object.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detailJSON is the line before the result: the host fingerprint and every
// metric with its direction and how it was measured.
type detailJSON struct {
	Workload string       `json:"workload"`
	Host     host         `json:"host"`
	Metrics  []metricLine `json:"metrics"`
}

type metricLine struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Notes  string  `json:"notes,omitempty"`
}

// report prints the readable table, the detail line, and last the one-line
// JSON result.
func report(out io.Writer, w *workload, r *result, vals []value) error {
	if r.attempted < 1 {
		return errors.New("no operation attempted")
	}
	procs := w.procs
	if procs == 0 {
		procs = runtime.NumCPU()
	}
	detail := detailJSON{Workload: w.name, Host: fingerprint(procs)}
	metrics := make(map[string]metricJSON, len(vals))
	for _, v := range vals {
		fmt.Fprintf(out, "  %-30s %16.6g %-8s %-6s %s\n", v.def.name, v.v, v.def.unit, v.def.better, v.notes)
		detail.Metrics = append(detail.Metrics, metricLine{v.def.name, v.v, v.def.unit, v.def.better, v.notes})
		metrics[v.def.name] = metricJSON{Value: v.v, Unit: v.def.unit}
	}
	fmt.Fprintf(out, "  attempted %d, failed %d\n", r.attempted, r.failed)
	b, err := json.Marshal(detail)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", b)
	b, err = json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
