package main

import (
	"math"
	"math/rand"

	"nbody"
)

// fastTolerance bounds the per-operation error of a Fast-preset result:
// the RMS deviation over the checked targets relative to the typical
// magnitude of the reference field there, as in the paper and the
// repository's accuracy tests (which take the mean; see fieldErr). 2e-3 is
// the bound the repository's own test of the Fast configuration (K=12,
// D=5) asserts, "three to four digits". Healthy runs measure 1.5e-3
// (uniform N=65536 at depth 4, the same on every seed), 2.3e-4 (uniform
// N=1024) and about 4e-4 (clustered accelerations).
const fastTolerance = 2e-3

// checkTargets is how many particles each operation is checked at (all of
// them when the system is smaller).
const checkTargets = 1024

// sampleTargets picks k distinct particle indices of [0, n).
func sampleTargets(rng *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	return rng.Perm(n)[:k]
}

// refPotentials is the direct sum phi_i = sum_{j != i} q_j / |x_i - x_j|
// at the sampled particles. It is the benchmark's own reference, written
// apart from the solvers it checks.
func refPotentials(pos []nbody.Vec3, q []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for k, i := range idx {
		p := pos[i]
		var s float64
		for j := range pos {
			dx, dy, dz := pos[j].X-p.X, pos[j].Y-p.Y, pos[j].Z-p.Z
			if r2 := dx*dx + dy*dy + dz*dz; j != i && r2 > 0 {
				s += q[j] / math.Sqrt(r2)
			}
		}
		out[k] = s
	}
	return out
}

// refAccelerations is the direct sum a_i = sum_{j != i} q_j (x_j - x_i) /
// |x_j - x_i|^3 at the sampled particles.
func refAccelerations(pos []nbody.Vec3, q []float64, idx []int) []nbody.Vec3 {
	out := make([]nbody.Vec3, len(idx))
	for k, i := range idx {
		p := pos[i]
		var ax, ay, az float64
		for j := range pos {
			dx, dy, dz := pos[j].X-p.X, pos[j].Y-p.Y, pos[j].Z-p.Z
			r2 := dx*dx + dy*dy + dz*dz
			if j == i || r2 == 0 {
				continue
			}
			w := q[j] / (r2 * math.Sqrt(r2))
			ax += w * dx
			ay += w * dy
			az += w * dz
		}
		out[k] = nbody.Vec3{X: ax, Y: ay, Z: az}
	}
	return out
}

// fieldErr is one operation's deviation from the reference at the checked
// targets: the sum of squared deviations, how many targets were checked (0
// when the output had the wrong length), and the median reference
// magnitude there. The median, not the mean, is the scale: on clustered
// input one close encounter can raise the mean acceleration a hundredfold
// for a step, while the median stays within a few percent of the mean on
// every other step.
type fieldErr struct {
	sq    float64
	n     int
	scale float64
}

// rel is the RMS deviation relative to the scale; +Inf when undefined.
func (f fieldErr) rel() float64 {
	return relRMS(f.sq, f.n, f.scale)
}

func relRMS(sq float64, n int, scale float64) float64 {
	if n == 0 || !(scale > 0) {
		return math.Inf(1)
	}
	e := math.Sqrt(sq/float64(n)) / scale
	if math.IsNaN(e) {
		return math.Inf(1)
	}
	return e
}

// potErr compares potentials at the targets idx with their reference.
func potErr(phi []float64, idx []int, want []float64) fieldErr {
	var f fieldErr
	mags := make([]float64, len(idx))
	for k, i := range idx {
		if i >= len(phi) {
			return fieldErr{}
		}
		d := phi[i] - want[k]
		f.sq += d * d
		mags[k] = math.Abs(want[k])
	}
	f.n, f.scale = len(idx), median(mags)
	return f
}

// accErr is potErr for vector fields, with Euclidean norms.
func accErr(acc []nbody.Vec3, idx []int, want []nbody.Vec3) fieldErr {
	var f fieldErr
	mags := make([]float64, len(idx))
	for k, i := range idx {
		if i >= len(acc) {
			return fieldErr{}
		}
		f.sq += acc[i].Sub(want[k]).Norm2()
		mags[k] = want[k].Norm()
	}
	f.n, f.scale = len(idx), median(mags)
	return f
}
