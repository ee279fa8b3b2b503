package main

import (
	"runtime"
	"time"

	"nbody"
)

// solveN is solve-64k's particle count: the size at which the planner's
// auto depth (4) splits a 2-worker solve about evenly between convert-T2
// and the near field, so a change to either, or to sched, shows.
const solveN = 65536

func runSolve(e *env) (*result, error) { return solveLoop(e, solveN) }

// solveLoop drives one reused Anderson solver with PotentialsInto on a
// seeded uniform system of n particles.
func solveLoop(e *env, n int) (*result, error) {
	sys := nbody.NewUniformSystem(n, e.seed)
	box := sys.BoundingBox()
	idx := sampleTargets(e.rng(), n, checkTargets)
	want := refPotentials(sys.Positions, sys.Charges, idx)
	r := newResult(n, e.trace)
	phi := make([]float64, n)

	// Cold set-up: plan resolution, solver build (translation matrices,
	// traversal plans) and the first solve.
	var a *nbody.Anderson
	for i := 0; i < setupReps; i++ {
		a = nil
		runtime.GC()
		t0 := time.Now()
		s, err := nbody.NewAnderson(box, nbody.AutoOptions(sys, nbody.Fast))
		if err != nil {
			return nil, err
		}
		err = s.PotentialsInto(phi, sys)
		r.setups = append(r.setups, time.Since(t0).Seconds())
		r.check(err, potErr(phi, idx, want))
		a = s
	}

	timeCalls(e, r, a, "nbody.Anderson.PotentialsInto", "core.other_ms",
		func() error { return a.PotentialsInto(phi, sys) },
		func() {},
		func(_ int64, err error) { r.check(err, potErr(phi, idx, want)) })
	return r, nil
}
