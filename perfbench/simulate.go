package main

import (
	"fmt"
	"runtime"
	"time"

	"nbody"
)

const (
	// simN is simulate-plummer-8k.w1's particle count.
	simN = 8192
	// simDT keeps a cold Plummer sphere well inside its padded domain for
	// the few dozen steps one run takes.
	simDT = 2e-5
)

func runSimulate(e *env) (*result, error) {
	if p := runtime.GOMAXPROCS(0); p != 1 {
		return nil, fmt.Errorf("simulate-plummer-8k.w1 needs GOMAXPROCS=1, have %d", p)
	}
	return simulateLoop(e, simN)
}

// simulateLoop steps one nbody.Simulation, whose force path is a reused
// Anderson solver's AccelerationsInto, on a seeded Plummer sphere of n
// particles.
//
// Every timed step starts from the set-up state: positions are restored
// and velocities zeroed outside the timed call, so each step does the same
// work. Left to evolve, the cold, unsoftened sphere forms close pairs
// within a few dozen steps, and one of them can fling a particle out of
// the solver's domain, after which every step fails.
//
// Every step's accelerations are checked against a direct sum at the new
// positions, computed outside the timed call. Step k checks the k-th slice
// of checkTargets particles of one seeded permutation, so a run checks
// every particle several times: on clustered input the error of a single
// fixed sample depends on which particles it happens to hold.
func simulateLoop(e *env, n int) (*result, error) {
	initial := nbody.NewPlummerSystem(n, e.seed)
	box := initial.BoundingBox()
	box.Side *= 1.2
	perm := sampleTargets(e.rng(), n, n)
	targets := func(k int) []int {
		c := min(checkTargets, n)
		idx := make([]int, c)
		for i := range idx {
			idx[i] = perm[(k*c+i)%n]
		}
		return idx
	}
	r := newResult(n, e.trace)

	// Cold set-up: plan resolution, solver build and the first force
	// solve, which NewSimulation runs.
	var sim *nbody.Simulation
	var solver *nbody.Anderson
	for i := 0; i < setupReps; i++ {
		sim, solver = nil, nil
		runtime.GC()
		sys := &nbody.System{
			Positions: append([]nbody.Vec3(nil), initial.Positions...),
			Charges:   append([]float64(nil), initial.Charges...),
		}
		t0 := time.Now()
		a, err := nbody.NewAnderson(box, nbody.AutoOptions(sys, nbody.Fast))
		if err != nil {
			return nil, err
		}
		s, err := nbody.NewSimulation(sys, nil, a, simDT)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
		idx := targets(0)
		r.check(nil, accErr(s.Accel(), idx, refAccelerations(sys.Positions, sys.Charges, idx)))
		sim, solver = s, a
	}

	timeCalls(e, r, solver, "nbody.Simulation.Step", "nbody.integrate_ms",
		func() error { return sim.Step(1) },
		func() {
			copy(sim.System.Positions, initial.Positions)
			clear(sim.Velocities)
		},
		func(op int64, err error) {
			sys, idx := sim.System, targets(int(op))
			r.check(err, accErr(sim.Accel(), idx, refAccelerations(sys.Positions, sys.Charges, idx)))
		})
	return r, nil
}
