package core

import (
	"context"
	"sync"
	"sync/atomic"

	"nbody/internal/blas"
	"nbody/internal/sched"
)

// aggScratch holds the working set of one aggregation chunk: the K x chunk
// gathered right-hand block, the K x chunk product block, and the decoded
// destination offsets of a lattice chunk. Pooled by pointer so steady-state
// solves recycle it without allocating.
type aggScratch struct {
	b   []float64 // gathered source block, k * aggregationChunk
	c   []float64 // product block, k * aggregationChunk
	idx []int32   // aggregationChunk decoded destination indices
}

var aggPool = sync.Pool{New: func() any { return new(aggScratch) }}

func getAggScratch(k int) *aggScratch {
	s := aggPool.Get().(*aggScratch)
	if cap(s.b) < k*aggregationChunk {
		s.b = make([]float64, k*aggregationChunk)
		s.c = make([]float64, k*aggregationChunk)
	}
	if cap(s.idx) < aggregationChunk {
		s.idx = make([]int32, aggregationChunk)
	}
	s.b = s.b[:k*aggregationChunk]
	s.c = s.c[:k*aggregationChunk]
	s.idx = s.idx[:aggregationChunk]
	return s
}

// aggregationChunk is the number of potential vectors aggregated into one
// matrix-matrix multiplication. The paper aggregates along a whole subgrid
// axis; here a fixed chunk keeps the working set inside cache independent of
// grid size.
const aggregationChunk = 128

// aggregatedApply performs dst[dstIdx[c]] += T * src[srcIdx[c]] for all c,
// by gathering source vectors as columns of a K x chunk matrix, multiplying
// with one level-3 BLAS call per chunk, and scattering the product columns
// back (Section 3.3.3: "conversions for all local boxes ... with the same
// relative location can be aggregated into a single matrix-matrix
// multiplication", at the cost of the 2/K-relative copy overhead measured
// in Table 3). The multiply is DgemmAssign, so the product block needs no
// zeroing pass between reuses.
//
// dstIdx values must be unique within one call; chunks then write disjoint
// destinations and can run in parallel. With a single executor the chunk
// loop runs inline — no closure, no scheduler round trip — which is what
// keeps steady-state solves allocation-free.
func aggregatedApply(ctx context.Context, t blas.Matrix, src, dst []float64, srcIdx, dstIdx []int32, k int) {
	n := len(srcIdx)
	if n == 0 {
		return
	}
	nchunks := (n + aggregationChunk - 1) / aggregationChunk
	if sched.Serial() || nchunks == 1 {
		s := getAggScratch(k)
		for ci := 0; ci < nchunks; ci++ {
			if ctx != nil && ctx.Err() != nil {
				break
			}
			aggChunk(s, t, src, dst, srcIdx, dstIdx, k, ci)
		}
		aggPool.Put(s)
		return
	}
	_ = sched.Run(ctx, nchunks, func(ci int) {
		s := getAggScratch(k)
		aggChunk(s, t, src, dst, srcIdx, dstIdx, k, ci)
		aggPool.Put(s)
	})
}

// aggChunk processes chunk ci of an index-pair aggregation: gather source
// vectors as columns, one assign-gemm, scatter-add the product columns.
func aggChunk(s *aggScratch, t blas.Matrix, src, dst []float64, srcIdx, dstIdx []int32, k, ci int) {
	lo := ci * aggregationChunk
	hi := lo + aggregationChunk
	if hi > len(srcIdx) {
		hi = len(srcIdx)
	}
	cols := hi - lo
	b := blas.Matrix{Rows: k, Cols: cols, Data: s.b[:k*cols]}
	c := blas.Matrix{Rows: k, Cols: cols, Data: s.c[:k*cols]}
	// Gather: column j of B is the potential vector of source box
	// srcIdx[lo+j] (the transposing copy the paper charges 2K cycles per
	// vector for).
	for j := 0; j < cols; j++ {
		sb := int(srcIdx[lo+j]) * k
		col := src[sb : sb+k]
		for r, v := range col {
			b.Data[r*cols+j] = v
		}
	}
	blas.DgemmAssign(t, b, c)
	// Scatter-add: column j of C accumulates into destination box
	// dstIdx[lo+j].
	for j := 0; j < cols; j++ {
		db := int(dstIdx[lo+j]) * k
		out := dst[db : db+k]
		for r := range out {
			out[r] += c.Data[r*cols+j]
		}
	}
}

// aggregatedApplyLattice is aggregatedApply for the interactive-field (T2)
// sweeps, where the (source, target) pairs of one (octant, offset) form a
// regular parity-aligned lattice (see latticeT2). Instead of materializing
// index arrays — which for deep hierarchies would cost hundreds of
// megabytes across the 875 offsets — target indices are decoded on the fly
// and the source index is target + lat.delta.
func aggregatedApplyLattice(ctx context.Context, t blas.Matrix, src, dst []float64, lat latticeT2, k int) {
	n := int(lat.count)
	if n == 0 {
		return
	}
	nchunks := (n + aggregationChunk - 1) / aggregationChunk
	if sched.Serial() || nchunks == 1 {
		s := getAggScratch(k)
		for ci := 0; ci < nchunks; ci++ {
			if ctx != nil && ctx.Err() != nil {
				break
			}
			latChunk(s, t, src, dst, lat, k, ci)
		}
		aggPool.Put(s)
		return
	}
	_ = sched.Run(ctx, nchunks, func(ci int) {
		s := getAggScratch(k)
		latChunk(s, t, src, dst, lat, k, ci)
		aggPool.Put(s)
	})
}

// latticeWalk is a cursor over the target boxes of one latticeT2, advanced
// x fastest. The packed and generic chunk bodies share the decode.
type latticeWalk struct {
	ix, iy         int
	x, y, z        int
	nx, ny         int
	lox, loy, grid int
}

// startLatticeWalk decodes the lattice point at linear position lo.
func startLatticeWalk(lat latticeT2, lo int) latticeWalk {
	nx, ny := int(lat.nx), int(lat.ny)
	ix := lo % nx
	rem := lo / nx
	iy := rem % ny
	iz := rem / ny
	return latticeWalk{
		ix: ix, iy: iy,
		x:  int(lat.lox) + 2*ix,
		y:  int(lat.loy) + 2*iy,
		z:  int(lat.loz) + 2*iz,
		nx: nx, ny: ny,
		lox: int(lat.lox), loy: int(lat.loy),
		grid: int(lat.grid),
	}
}

// index returns the linear box index of the current lattice point.
func (w *latticeWalk) index() int { return (w.z*w.grid+w.y)*w.grid + w.x }

// next advances one lattice point, x fastest.
func (w *latticeWalk) next() {
	w.ix++
	w.x += 2
	if w.ix == w.nx {
		w.ix, w.x = 0, w.lox
		w.iy++
		w.y += 2
		if w.iy == w.ny {
			w.iy, w.y = 0, w.loy
			w.z += 2
		}
	}
}

// latChunk processes chunk ci of one lattice sweep: decode target boxes,
// gather src[target+delta] as columns, one assign-gemm, scatter-add into
// the targets.
func latChunk(s *aggScratch, t blas.Matrix, src, dst []float64, lat latticeT2, k, ci int) {
	lo := ci * aggregationChunk
	hi := lo + aggregationChunk
	if hi > int(lat.count) {
		hi = int(lat.count)
	}
	cols := hi - lo
	b := blas.Matrix{Rows: k, Cols: cols, Data: s.b[:k*cols]}
	c := blas.Matrix{Rows: k, Cols: cols, Data: s.c[:k*cols]}
	delta := int(lat.delta) * k
	w := startLatticeWalk(lat, lo)
	for j := 0; j < cols; j++ {
		db := w.index() * k
		s.idx[j] = int32(db)
		col := src[db+delta : db+delta+k]
		for r, v := range col {
			b.Data[r*cols+j] = v
		}
		w.next()
	}
	blas.DgemmAssign(t, b, c)
	for j := 0; j < cols; j++ {
		db := int(s.idx[j])
		out := dst[db : db+k]
		for r := range out {
			out[r] += c.Data[r*cols+j]
		}
	}
}

// atomicAdd64 accumulates instrumentation counters from parallel workers.
func atomicAdd64(p *int64, v int64) { atomic.AddInt64(p, v) }
