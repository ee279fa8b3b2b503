// Package blas implements the dense linear-algebra kernels Anderson's
// translations reduce to. The paper's central arithmetic optimization
// (Section 3.3.3) is to express each translation operator as a K x K matrix,
// apply it to a potential vector as a level-2 BLAS matrix-vector product,
// and then aggregate the translations of many boxes into level-3 BLAS
// matrix-matrix products (optionally "multiple-instance", the CMSSL notion
// of a batched GEMM). This package provides those kernels: row-major
// float64 matrices and streaming GEMM/GEMV with backend-dispatched inner
// loops (dispatch.go). The multiple-instance product itself is the gather
// plus one DgemmAssign per chunk in internal/core's aggregatedApply*;
// parallel regions belong to internal/sched.
package blas

import "fmt"

// Matrix is a dense row-major matrix: element (i, j) is Data[i*Cols+j].
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero Rows x Cols matrix.
func NewMatrix(rows, cols int) Matrix {
	return Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// String implements fmt.Stringer (shape only; matrices here can be large).
func (m Matrix) String() string { return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols) }

// Daxpy computes y += alpha*x.
func Daxpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("blas: Daxpy length mismatch")
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Dgemv computes y += A*x (level-2 BLAS, beta = 1 accumulate form: the form
// every translation application uses, since child/interactive contributions
// accumulate into the destination potential vector). The inner loop is
// backend-dispatched (dispatch.go).
func Dgemv(a Matrix, x, y []float64) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic("blas: Dgemv shape mismatch")
	}
	if a.Rows == 0 || a.Cols == 0 {
		return
	}
	if countersOn.Load() {
		countGemv(a.Rows, a.Cols)
	}
	gemvImpl(a.Rows, a.Cols, a.Data, x, y)
}

// DgemvFlops returns the floating-point operation count of one Dgemv of the
// given shape (the 2mn convention used throughout the paper's efficiency
// numbers).
func DgemvFlops(rows, cols int) int64 { return 2 * int64(rows) * int64(cols) }

// Dgemm computes C += A*B. A is m x k, B is k x n, C is m x n, all
// row-major. All shapes go through backend-dispatched streaming kernels
// (dispatch.go) with constant trip-count fast paths for the paper's K = 12
// and K = 72 translation shapes: on the scalar backend the k-unrolled
// streams of gemm_stream.go, on AVX2 hosts the FMA kernels of
// gemm_avx2_amd64.s. The inner loop is branch-free (the seed's aik == 0
// skip cost a mispredicted branch per element on dense translation
// matrices). Each backend's reduction order is fixed, so results are
// bitwise deterministic call to call within a backend.
func Dgemm(a, b, c Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic("blas: Dgemm shape mismatch")
	}
	m, k, n := a.Rows, a.Cols, b.Cols
	if m == 0 || k == 0 || n == 0 {
		return
	}
	if countersOn.Load() {
		countGemm(m, k, n)
	}
	switch k {
	case 12:
		gemmK12Impl(m, n, a.Data, b.Data, c.Data)
	case 72:
		gemmK72Impl(m, n, a.Data, b.Data, c.Data)
	default:
		gemmImpl(m, k, n, a.Data, b.Data, c.Data)
	}
}

// DgemmFlops returns the floating-point operation count of one Dgemm of the
// given shape (2mkn).
func DgemmFlops(m, k, n int) int64 { return 2 * int64(m) * int64(k) * int64(n) }
