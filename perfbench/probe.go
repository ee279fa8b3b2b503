package main

import (
	"runtime"
	"time"

	"nbody"
	"nbody/internal/blas"
	"nbody/internal/metrics"
	"nbody/internal/sched"
)

// corePhases maps the solver's pipeline phases onto layer metric names.
var corePhases = []struct {
	phase metrics.Phase
	name  string
}{
	{metrics.PhaseSort, "core.sort_ms"},
	{metrics.PhaseLeafOuter, "core.leaf_outer_ms"},
	{metrics.PhaseT1, "core.upward_t1_ms"},
	{metrics.PhaseT2, "core.convert_t2_ms"},
	{metrics.PhaseT3, "core.downward_t3_ms"},
	{metrics.PhaseEvalLocal, "core.eval_local_ms"},
	{metrics.PhaseNear, "core.near_field_ms"},
}

// libProbe reads, around one public library call, the counters the
// modules already expose: the solver's phase snapshot, the heap, the
// scheduler's worker stats and the BLAS call counters. It adds nothing
// inside the program.
type libProbe struct {
	solver *nbody.Anderson
	before metrics.Snapshot
	mem    runtime.MemStats
	t0     time.Time

	series map[string][]float64
	// Flop and time totals, for whole-run Mflop/s and pair rates.
	t2Flops, nearFlops, nearPairs int64
	t2Time, nearTime              time.Duration
}

func newLibProbe(a *nbody.Anderson) *libProbe {
	sched.EnableStats(true)
	blas.EnableCounters(true)
	return &libProbe{solver: a, series: map[string][]float64{}}
}

// start arms the counters; the call to measure follows immediately.
func (p *libProbe) start() {
	sched.ResetStats()
	blas.ResetCounters()
	p.before = *p.solver.Stats()
	runtime.ReadMemStats(&p.mem)
	p.t0 = time.Now()
}

// stop reads the counters after the call and returns its wall time and
// phase times as span attributes. The call's wall time minus the solve's
// phases is reported under restName: core.other_ms for a solve call,
// nbody.integrate_ms for a simulation step.
func (p *libProbe) stop(restName string) (wall time.Duration, attrs map[string]float64) {
	end := time.Now()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	wall = end.Sub(p.t0)
	after := *p.solver.Stats()
	d := after.Diff(&p.before)
	workers := sched.ReadStats()
	bc := blas.ReadCounters()

	attrs = map[string]float64{"wall_ms": ms(wall)}
	for _, cp := range corePhases {
		v := ms(d.Time[cp.phase])
		p.series[cp.name] = append(p.series[cp.name], v)
		attrs[cp.name] = v
	}
	rest := ms(wall - d.TotalTime())
	p.series[restName] = append(p.series[restName], rest)
	attrs[restName] = rest

	var busy time.Duration
	for _, w := range workers {
		busy += w.Busy
	}
	// With one worker sched has no pool and runs every region inline on
	// the caller; only regions handed to a pool count. The submitting
	// goroutine (slot 0) takes part in each of those.
	regions := float64(0)
	if sched.Workers() > 1 {
		regions = float64(workers[0].Jobs)
	}
	p.series["sched.allocs_per_solve"] = append(p.series["sched.allocs_per_solve"], float64(mem.Mallocs-p.mem.Mallocs))
	p.series["sched.alloc_bytes_per_solve"] = append(p.series["sched.alloc_bytes_per_solve"], float64(mem.TotalAlloc-p.mem.TotalAlloc))
	p.series["sched.regions_per_solve"] = append(p.series["sched.regions_per_solve"], regions)
	p.series["sched.busy_ratio"] = append(p.series["sched.busy_ratio"], float64(busy)/(float64(len(workers))*float64(wall)))
	p.series["blas.gemm_calls_per_solve"] = append(p.series["blas.gemm_calls_per_solve"], float64(bc.GemmCalls))
	p.series["blas.gemm_flops_per_solve"] = append(p.series["blas.gemm_flops_per_solve"], float64(bc.GemmFlops))
	p.series["kernels.near_pairs_per_solve"] = append(p.series["kernels.near_pairs_per_solve"], float64(d.NearPairs))

	p.t2Flops += d.Flops[metrics.PhaseT2]
	p.t2Time += d.Time[metrics.PhaseT2]
	p.nearFlops += d.Flops[metrics.PhaseNear]
	p.nearTime += d.Time[metrics.PhaseNear]
	p.nearPairs += d.NearPairs
	return wall, attrs
}

// into stores the per-layer medians and whole-run rates in layers.
func (p *libProbe) into(layers map[string]float64) {
	mediansInto(layers, p.series)
	if p.t2Time > 0 {
		layers["core.convert_t2_mflops"] = float64(p.t2Flops) / p.t2Time.Seconds() / 1e6
	}
	if p.nearTime > 0 {
		layers["core.near_field_mflops"] = float64(p.nearFlops) / p.nearTime.Seconds() / 1e6
		layers["kernels.near_pairs_per_s"] = float64(p.nearPairs) / p.nearTime.Seconds()
	}
}

// timeCalls is the steady phase of a library workload: it times call until
// the run has measured enough, with prepare before and check after each
// call (both untimed), and in a traced run reads the probe around every
// call and records its spans. solver is the Anderson solver call runs on;
// restName is the layer metric for the call's wall time outside the solve
// phases.
func timeCalls(e *env, r *result, solver *nbody.Anderson, name, restName string, call func() error, prepare func(), check func(op int64, err error)) {
	var probe *libProbe
	if e.trace {
		probe = newLibProbe(solver)
	}
	start := time.Now()
	for op := int64(1); e.more(start, len(r.lat)); op++ {
		prepare()
		var attrs map[string]float64
		if probe != nil {
			probe.start()
		}
		t0 := time.Now()
		err := call()
		wall := time.Since(t0)
		if probe != nil {
			wall, attrs = probe.stop(restName)
		}
		t1 := time.Now()
		check(op, err)
		if err == nil {
			r.lat = append(r.lat, ms(wall))
			r.steady += wall
		}
		root := r.spans.add(op, 0, "op", t0, time.Now(), nil)
		r.spans.add(op, root, name, t0, t0.Add(wall), attrs)
		r.spans.add(op, root, "check", t1, time.Now(), nil)
	}
	r.rssMB = float64(peakRSSKB()) / 1024
	if probe != nil {
		probe.into(r.layers)
		r.layers["trace.particles_per_s"] = r.particlesPerS()
	}
}
