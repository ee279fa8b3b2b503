package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef is one reported metric. The same table is declared in
// BENCHMARK.json; bench_test.go keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the library or the service sees,
// reported on every workload by untraced runs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"particles_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"rel_err", "ratio", "lower"},
	{"maxrss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, named <module>.<quantity>. A
// layer the workload's path does not reach reports 0 (see README.md for
// which layer is meant to move on which workload).
var perLayer = []metricDef{
	{"core.sort_ms", "ms", "lower"},
	{"core.leaf_outer_ms", "ms", "lower"},
	{"core.upward_t1_ms", "ms", "lower"},
	{"core.convert_t2_ms", "ms", "lower"},
	{"core.downward_t3_ms", "ms", "lower"},
	{"core.eval_local_ms", "ms", "lower"},
	{"core.near_field_ms", "ms", "lower"},
	{"core.other_ms", "ms", "lower"},
	{"core.convert_t2_mflops", "Mflop/s", "higher"},
	{"core.near_field_mflops", "Mflop/s", "higher"},
	{"sched.allocs_per_solve", "count", "lower"},
	{"sched.alloc_bytes_per_solve", "B", "lower"},
	{"sched.regions_per_solve", "count", "lower"},
	{"sched.busy_ratio", "ratio", "higher"},
	{"blas.gemm_calls_per_solve", "count", "lower"},
	{"blas.gemm_flops_per_solve", "flop", "lower"},
	{"kernels.near_pairs_per_solve", "count", "lower"},
	{"kernels.near_pairs_per_s", "1/s", "higher"},
	{"nbody.integrate_ms", "ms", "lower"},
	{"plan.resolve_us", "us", "lower"},
	{"plan.cache_hit_ratio", "ratio", "higher"},
	{"serve.queue_ms", "ms", "lower"},
	{"serve.solve_ms", "ms", "lower"},
	{"serve.replica_ms", "ms", "lower"},
	{"serve.overhead_ms", "ms", "lower"},
	{"serve.request_bytes", "B", "lower"},
	{"serve.response_bytes", "B", "lower"},
	{"gw.request_ms", "ms", "lower"},
	{"gw.hop_ms", "ms", "lower"},
	{"gw.failovers", "count", "lower"},
	{"trace.particles_per_s", "1/s", "higher"},
}

// result is what one workload run measured.
type result struct {
	n         int       // particles per operation
	attempted int       // operations whose output was checked
	failed    int       // errors, non-200 responses and outputs over tolerance
	setups    []float64 // seconds of each cold set-up
	lat       []float64 // milliseconds of each steady-state operation
	// steady is the steady state's wall time: the sum of the timed calls
	// for a library workload, the closed loop's duration for a service.
	steady time.Duration
	// errSq and errN pool the squared deviations of every operation that
	// passed; errScales holds each one's reference scale.
	errSq     float64
	errN      int
	errScales []float64
	rssMB     float64
	layers    map[string]float64
	spans     *tracer
}

func newResult(n int, trace bool) *result {
	r := &result{n: n, layers: map[string]float64{}}
	if trace {
		r.spans = newTracer()
	}
	return r
}

// check counts one operation: a returned error or an output further from
// the reference than the Fast preset's tolerance fails it.
func (r *result) check(err error, fe fieldErr) {
	r.attempted++
	if err != nil || !(fe.rel() <= fastTolerance) {
		r.failed++
		return
	}
	r.errSq += fe.sq
	r.errN += fe.n
	r.errScales = append(r.errScales, fe.scale)
}

// particlesPerS is N times the completed steady-state operations over
// the steady state's wall time.
func (r *result) particlesPerS() float64 {
	return float64(r.n) * float64(len(r.lat)) / r.steady.Seconds()
}

// value is one emitted metric.
type value struct {
	def   metricDef
	v     float64
	notes string
}

// endToEndValues derives the end-to-end metrics; tailP is the workload's
// fixed tail percentile.
func (r *result) endToEndValues(tailP float64) ([]value, error) {
	tv, beyond, err := tail(r.lat, tailP)
	if err != nil {
		return nil, fmt.Errorf("latency_tail_ms: %w", err)
	}
	vals := map[string]value{
		"setup_s":         {v: median(r.setups), notes: fmt.Sprintf("median of %d cold set-ups", len(r.setups))},
		"particles_per_s": {v: r.particlesPerS(), notes: fmt.Sprintf("N=%d x %d ops / %.3f s", r.n, len(r.lat), r.steady.Seconds())},
		"latency_p50_ms":  {v: median(r.lat), notes: fmt.Sprintf("%d samples", len(r.lat))},
		"latency_tail_ms": {v: tv, notes: fmt.Sprintf("p%g of %d samples, %d beyond", 100*tailP, len(r.lat), beyond)},
		"rel_err":         {v: relRMS(r.errSq, r.errN, median(r.errScales)), notes: fmt.Sprintf("RMS |err| over %d checked values / median |ref|", r.errN)},
		"maxrss_mb":       {v: r.rssMB, notes: "peak RSS of the process under test"},
	}
	return fill(endToEnd, vals)
}

// perLayerValues returns every per-layer metric, 0 where the workload's
// path does not reach the layer.
func (r *result) perLayerValues() ([]value, error) {
	vals := map[string]value{}
	for k, v := range r.layers {
		vals[k] = value{v: v}
	}
	for _, d := range perLayer {
		if _, ok := vals[d.name]; !ok {
			vals[d.name] = value{notes: "layer not on this workload's path"}
		}
	}
	return fill(perLayer, vals)
}

// fill orders vals by defs and rejects unknown names and non-finite values.
func fill(defs []metricDef, vals map[string]value) ([]value, error) {
	out := make([]value, 0, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", d.name)
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v.v)
		}
		v.def = d
		out = append(out, v)
		delete(vals, d.name)
	}
	if len(vals) > 0 {
		names := make([]string, 0, len(vals))
		for k := range vals {
			names = append(names, k)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("undeclared metrics %v", names)
	}
	return out, nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// mediansInto stores the median of each named sample series in layers.
func mediansInto(layers map[string]float64, series map[string][]float64) {
	for k, xs := range series {
		if len(xs) > 0 {
			layers[k] = median(xs)
		}
	}
}
