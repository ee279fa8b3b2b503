package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMatrix(rng *rand.Rand, rows, cols int) Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// naiveGemm is the triple-loop reference implementation.
func naiveGemm(a, b, c Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, c.At(i, j)+s)
		}
	}
}

func matricesClose(a, b Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 || m.Data[5] != 5 {
		t.Errorf("Set/At broken: %v", m.Data)
	}
	if m.String() != "Matrix(2x3)" {
		t.Errorf("String = %q", m.String())
	}
}

func TestDaxpy(t *testing.T) {
	y := []float64{1, 1, 1}
	Daxpy(2, []float64{1, 2, 3}, y)
	want := []float64{3, 5, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Daxpy = %v", y)
		}
	}
	Daxpy(0, []float64{100, 100, 100}, y) // alpha=0 fast path: no change
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Daxpy alpha=0 modified y: %v", y)
		}
	}
}

func TestDgemvAccumulates(t *testing.T) {
	a := Matrix{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	x := []float64{1, 1, 1}
	y := []float64{10, 20}
	Dgemv(a, x, y)
	if y[0] != 16 || y[1] != 35 {
		t.Errorf("Dgemv = %v", y)
	}
}

func TestDgemvShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Dgemv(NewMatrix(2, 3), make([]float64, 2), make([]float64, 2))
}

func TestDgemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 4, 5}, {12, 12, 8}, {72, 72, 4}, {17, 130, 9}, {64, 64, 64},
	}
	for _, s := range shapes {
		a := randMatrix(rng, s.m, s.k)
		b := randMatrix(rng, s.k, s.n)
		c1 := randMatrix(rng, s.m, s.n)
		c2 := Matrix{Rows: s.m, Cols: s.n, Data: append([]float64(nil), c1.Data...)}
		Dgemm(a, b, c1)
		naiveGemm(a, b, c2)
		if !matricesClose(c1, c2, 1e-10*float64(s.k)) {
			t.Errorf("Dgemm mismatch for %dx%dx%d", s.m, s.k, s.n)
		}
	}
}

func TestDgemmShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Dgemm(NewMatrix(2, 3), NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestDgemvEquivalentToDgemmColumn(t *testing.T) {
	// A*x as gemv equals A*B with B the single-column matrix of x: the
	// aggregation correctness property of Section 3.3.3 in miniature.
	rng := rand.New(rand.NewSource(12))
	a := randMatrix(rng, 12, 12)
	x := make([]float64, 12)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, 12)
	Dgemv(a, x, y)

	b := NewMatrix(12, 1)
	for i := range x {
		b.Set(i, 0, x[i])
	}
	c := NewMatrix(12, 1)
	Dgemm(a, b, c)
	for i := range y {
		if math.Abs(y[i]-c.At(i, 0)) > 1e-12 {
			t.Fatalf("gemv/gemm disagree at %d: %g vs %g", i, y[i], c.At(i, 0))
		}
	}
}

func TestFlopCounts(t *testing.T) {
	if got := DgemvFlops(3, 4); got != 24 {
		t.Errorf("DgemvFlops = %d", got)
	}
	if got := DgemmFlops(2, 3, 4); got != 48 {
		t.Errorf("DgemmFlops = %d", got)
	}
}

func TestDgemmLinearityProperty(t *testing.T) {
	// Property: C(alpha*A, B) == alpha * C(A, B) for zero-initialized C.
	rng := rand.New(rand.NewSource(13))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randMatrix(r, 6, 7)
		b := randMatrix(r, 7, 5)
		c1 := NewMatrix(6, 5)
		Dgemm(a, b, c1)
		a2 := Matrix{Rows: 6, Cols: 7, Data: append([]float64(nil), a.Data...)}
		for i := range a2.Data {
			a2.Data[i] *= 2.5
		}
		c2 := NewMatrix(6, 5)
		Dgemm(a2, b, c2)
		for i := range c1.Data {
			if math.Abs(c2.Data[i]-2.5*c1.Data[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkDgemm12(b *testing.B) { benchGemm(b, 12, 12, 512) }
func BenchmarkDgemm72(b *testing.B) { benchGemm(b, 72, 72, 512) }

func benchGemm(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(1))
	a := randMatrix(rng, m, k)
	bm := randMatrix(rng, k, n)
	c := NewMatrix(m, n)
	b.SetBytes(8 * int64(m*k+k*n+m*n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dgemm(a, bm, c)
	}
	flops := float64(DgemmFlops(m, k, n)) * float64(b.N)
	b.ReportMetric(flops/b.Elapsed().Seconds()/1e6, "Mflops/s")
}
