package sparse

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrBlockBreakdown reports that a block-Krylov solve lost rank: the
// right-hand sides' search directions became (numerically) linearly
// dependent. Callers should fall back to independent per-RHS solves.
var ErrBlockBreakdown = errors.New("sparse: block-CG search directions became linearly dependent")

// MulVecBlockN computes s matrix-vector products at once over interleaved
// block vectors: dst and x store column c of row i at index i·s+c, so one
// pass over the matrix feeds every column — the memory-bandwidth win block
// Krylov methods exist for. Rows are split across up to `workers`
// goroutines (0 means GOMAXPROCS); small systems run serially.
func (m *CSR) MulVecBlockN(dst, x []float64, s, workers int) {
	if s <= 0 {
		panic("sparse: MulVecBlockN needs s > 0")
	}
	if len(dst) != m.n*s || len(x) != m.n*s {
		panic("sparse: MulVecBlockN dimension mismatch")
	}
	workers = MulVecWorkers(m.n, workers)
	if workers == 1 {
		m.mulRangeBlock(dst, x, s, 0, m.n)
		return
	}
	var wg sync.WaitGroup
	chunk := (m.n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > m.n {
			hi = m.n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			m.mulRangeBlock(dst, x, s, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func (m *CSR) mulRangeBlock(dst, x []float64, s, lo, hi int) {
	if s == 4 {
		m.mulRangeBlock4(dst, x, lo, hi)
		return
	}
	var stack [8]float64
	sums := stack[:]
	if s > len(stack) {
		sums = make([]float64, s)
	} else {
		sums = sums[:s]
	}
	for i := lo; i < hi; i++ {
		for c := range sums {
			sums[c] = 0
		}
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			v := m.values[p]
			src := int(m.colIdx[p]) * s
			for c := 0; c < s; c++ {
				sums[c] += v * x[src+c]
			}
		}
		copy(dst[i*s:(i+1)*s], sums)
	}
}

// mulRangeBlock4 is the s = 4 block kernel — the width of the thermal
// basis build (chip/VCSEL/driver/heater unit vectors), and by far the
// hottest block size. Keeping the four accumulators in named locals
// instead of a scratch slice lets the compiler hold them in registers
// across the row, so each matrix entry costs one load and four fused
// multiply-adds instead of a bounds-checked inner loop.
func (m *CSR) mulRangeBlock4(dst, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s0, s1, s2, s3 float64
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			v := m.values[p]
			src := x[m.colIdx[p]*4 : m.colIdx[p]*4+4]
			s0 += v * src[0]
			s1 += v * src[1]
			s2 += v * src[2]
			s3 += v * src[3]
		}
		d := dst[i*4 : i*4+4]
		d[0], d[1], d[2], d[3] = s0, s1, s2, s3
	}
}

// BlockCG solves a·x_c = b_c for every column c simultaneously with the
// preconditioned block conjugate gradient method (O'Leary 1980): all
// columns share each matrix pass (MulVecBlockN over interleaved block
// vectors) and exchange Krylov information through small s×s projections,
// so clustered right-hand sides converge in fewer iterations than s
// independent CG runs and touch the matrix s× less per iteration.
//
// Each preconditioner computes z = M⁻¹·r for contiguous single vectors.
// Pass one to share it across all columns (applied column-by-column), or
// one per column — all representing the SAME operator M but owning
// disjoint scratch — to apply them concurrently, which keeps every core
// busy through expensive applications like multigrid V-cycles. The
// incoming xs seed the iteration and receive the solutions. One Result
// per column is returned; on non-convergence every column keeps its best
// iterate.
//
// If the block loses rank mid-flight the error wraps ErrBlockBreakdown and
// callers should retry with independent solves.
func BlockCG(a *CSR, bs, xs [][]float64, preconds []func(z, r []float64), tol float64, maxIter, workers int) ([]Result, error) {
	n := a.n
	s := len(bs)
	if s == 0 {
		return nil, fmt.Errorf("sparse: BlockCG needs at least one right-hand side")
	}
	if len(xs) != s {
		return nil, fmt.Errorf("sparse: BlockCG has %d right-hand sides but %d solutions", s, len(xs))
	}
	if len(preconds) != 1 && len(preconds) != s {
		return nil, fmt.Errorf("sparse: BlockCG needs 1 shared or %d per-column preconditioners, got %d", s, len(preconds))
	}
	for c := range bs {
		if len(bs[c]) != n {
			return nil, fmt.Errorf("sparse: rhs %d length %d != n %d", c, len(bs[c]), n)
		}
		if len(xs[c]) != n {
			return nil, fmt.Errorf("sparse: solution %d length %d != n %d", c, len(xs[c]), n)
		}
	}
	if maxIter <= 0 {
		maxIter = 10 * n
	}
	if tol <= 0 {
		tol = 1e-9
	}
	results := make([]Result, s)
	bNorm := make([]float64, s)
	var active []int
	for c := range bs {
		bNorm[c] = Norm2(bs[c])
		if bNorm[c] == 0 {
			// A zero column would make the block singular: its exact
			// solution is x = 0, so solve it here and keep it out of the
			// small projections entirely.
			for i := range xs[c] {
				xs[c][i] = 0
			}
			results[c].Converged = true
		} else {
			active = append(active, c)
		}
	}
	if len(active) == 0 {
		return results, nil
	}
	if len(active) < s {
		subB := make([][]float64, len(active))
		subX := make([][]float64, len(active))
		subP := preconds
		if len(preconds) > 1 {
			subP = make([]func(z, r []float64), len(active))
			for i, c := range active {
				subP[i] = preconds[c]
			}
		}
		for i, c := range active {
			subB[i], subX[i] = bs[c], xs[c]
		}
		subRes, err := BlockCG(a, subB, subX, subP, tol, maxIter, workers)
		for i, c := range active {
			results[c] = subRes[i]
		}
		return results, err
	}

	// Interleaved block vectors: entry (i, c) at i·s+c.
	blk := func() []float64 { return make([]float64, n*s) }
	r, z, p, q := blk(), blk(), blk(), blk()
	rcol := make([]float64, n)
	zcol := make([]float64, n)

	// R = B − A·X (column-wise: X arrives as independent slices).
	for c := range xs {
		a.MulVecN(rcol, xs[c], workers)
		for i := 0; i < n; i++ {
			r[i*s+c] = bs[c][i] - rcol[i]
		}
	}
	var applyPrecond func()
	if len(preconds) == 1 {
		precond := preconds[0]
		applyPrecond = func() {
			for c := 0; c < s; c++ {
				for i := 0; i < n; i++ {
					rcol[i] = r[i*s+c]
				}
				precond(zcol, rcol)
				for i := 0; i < n; i++ {
					z[i*s+c] = zcol[i]
				}
			}
		}
	} else {
		// One preconditioner per column, each with private scratch:
		// apply them concurrently. De/interleaving stays per goroutine.
		rcols := make([][]float64, s)
		zcols := make([][]float64, s)
		for c := range rcols {
			rcols[c] = make([]float64, n)
			zcols[c] = make([]float64, n)
		}
		applyPrecond = func() {
			var wg sync.WaitGroup
			for c := 0; c < s; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rc, zc := rcols[c], zcols[c]
					for i := 0; i < n; i++ {
						rc[i] = r[i*s+c]
					}
					preconds[c](zc, rc)
					for i := 0; i < n; i++ {
						z[i*s+c] = zc[i]
					}
				}(c)
			}
			wg.Wait()
		}
	}
	// columnResiduals refreshes per-column relative residuals and reports
	// whether every column is at tolerance.
	columnResiduals := func() bool {
		done := true
		for c := 0; c < s; c++ {
			var sum float64
			for i := 0; i < n; i++ {
				sum += r[i*s+c] * r[i*s+c]
			}
			results[c].Residual = math.Sqrt(sum) / bNorm[c]
			if results[c].Residual <= tol {
				results[c].Converged = true
			} else {
				results[c].Converged = false
				done = false
			}
		}
		return done
	}

	applyPrecond()
	copy(p, z)
	gamma := blockDot(r, z, s) // γ = Rᵀ·Z
	if columnResiduals() {
		return results, nil
	}

	alpha := make([]float64, s*s)
	beta := make([]float64, s*s)
	rowBuf := make([]float64, s)
	for k := 0; k < maxIter; k++ {
		for c := range results {
			results[c].Iterations = k + 1
		}
		a.MulVecBlockN(q, p, s, workers)
		delta := blockDot(p, q, s) // Δ = Pᵀ·A·P
		if err := solveSmall(delta, gamma, alpha, s); err != nil {
			return results, fmt.Errorf("%w (iteration %d: %v)", ErrBlockBreakdown, k, err)
		}
		// X += P·α, R −= Q·α.
		for i := 0; i < n; i++ {
			base := i * s
			for c := 0; c < s; c++ {
				var dx, dr float64
				for j := 0; j < s; j++ {
					aj := alpha[j*s+c]
					dx += p[base+j] * aj
					dr += q[base+j] * aj
				}
				xs[c][i] += dx
				r[base+c] -= dr
			}
		}
		if columnResiduals() {
			return results, nil
		}
		applyPrecond()
		gammaNew := blockDot(r, z, s)
		if err := solveSmall(gamma, gammaNew, beta, s); err != nil {
			return results, fmt.Errorf("%w (iteration %d: %v)", ErrBlockBreakdown, k, err)
		}
		// P = Z + P·β (row-wise so the old P row survives the update).
		for i := 0; i < n; i++ {
			base := i * s
			copy(rowBuf, p[base:base+s])
			for c := 0; c < s; c++ {
				sum := z[base+c]
				for j := 0; j < s; j++ {
					sum += rowBuf[j] * beta[j*s+c]
				}
				p[base+c] = sum
			}
		}
		gamma = gammaNew
	}
	worst := 0.0
	for _, res := range results {
		if res.Residual > worst {
			worst = res.Residual
		}
	}
	return results, fmt.Errorf("sparse: block CG did not converge in %d iterations (worst residual %.3e)", maxIter, worst)
}

// blockDot computes the s×s Gram matrix G[i][j] = Σ_k u(k,i)·v(k,j) of two
// interleaved block vectors.
func blockDot(u, v []float64, s int) []float64 {
	g := make([]float64, s*s)
	for base := 0; base+s <= len(u); base += s {
		for i := 0; i < s; i++ {
			ui := u[base+i]
			if ui == 0 {
				continue
			}
			for j := 0; j < s; j++ {
				g[i*s+j] += ui * v[base+j]
			}
		}
	}
	return g
}

// solveSmall solves m·x = rhs for s×s flat matrices (rhs holds s columns)
// by Gaussian elimination with partial pivoting, writing the solution into
// x. m and rhs are destroyed. A vanishing pivot reports rank loss.
func solveSmall(m, rhs, x []float64, s int) error {
	// Work on copies so callers can keep γ for the β solve.
	a := append([]float64(nil), m...)
	b := append([]float64(nil), rhs...)
	var scale float64
	for _, v := range a {
		if av := math.Abs(v); av > scale {
			scale = av
		}
	}
	if scale == 0 {
		return fmt.Errorf("zero projection matrix")
	}
	for col := 0; col < s; col++ {
		// Pivot.
		piv := col
		for row := col + 1; row < s; row++ {
			if math.Abs(a[row*s+col]) > math.Abs(a[piv*s+col]) {
				piv = row
			}
		}
		if math.Abs(a[piv*s+col]) < 1e-14*scale {
			return fmt.Errorf("pivot %d vanished", col)
		}
		if piv != col {
			for j := 0; j < s; j++ {
				a[col*s+j], a[piv*s+j] = a[piv*s+j], a[col*s+j]
				b[col*s+j], b[piv*s+j] = b[piv*s+j], b[col*s+j]
			}
		}
		inv := 1 / a[col*s+col]
		for row := 0; row < s; row++ {
			if row == col {
				continue
			}
			f := a[row*s+col] * inv
			if f == 0 {
				continue
			}
			for j := col; j < s; j++ {
				a[row*s+j] -= f * a[col*s+j]
			}
			for j := 0; j < s; j++ {
				b[row*s+j] -= f * b[col*s+j]
			}
		}
	}
	for row := 0; row < s; row++ {
		inv := 1 / a[row*s+row]
		for j := 0; j < s; j++ {
			x[row*s+j] = b[row*s+j] * inv
		}
	}
	return nil
}
