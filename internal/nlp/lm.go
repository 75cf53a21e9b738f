package nlp

import (
	"context"
	"math"

	"absolver/internal/expr"
	"absolver/internal/interval"
)

// polish refines a candidate point by damped Gauss-Newton (Levenberg-
// Marquardt) iterations on the violation residual vector. Gradient descent
// converges only linearly near a solution of tight equalities; LM restores
// the quadratic local convergence an interior-point solver like IPOPT has.
// It overwrites x with a point at least as good under the merit function;
// box holds each slot's clamp interval. The Jacobian's columns are the
// penalty's LM columns. evals counts merit evaluations.
func polish(ctx context.Context, p *penalty, x []float64, box []interval.Interval) (evals int) {
	f, ok := p.eval(x, p.gx)
	evals++
	if !ok {
		return evals
	}
	lambda := 1e-3
	n := len(p.cols)
	if n == 0 {
		return evals
	}
	if p.rows == nil {
		p.rows = newMatrix(len(p.terms), n)
	}
	a := newMatrix(n, n)
	ad := newMatrix(n, n)
	b := make([]float64, n)
	bd := make([]float64, n)
	var res []float64
	for iter := 0; iter < 60; iter++ {
		if f <= Tol*Tol {
			return evals
		}
		if ctx.Err() != nil {
			return evals
		}
		// Residuals and Jacobian of active terms.
		rows := p.rows[:0]
		res = res[:0]
		for i := range p.terms {
			t := &p.terms[i]
			v, dvdg := t.violation(p.gx[i])
			if v == 0 && t.op != expr.CmpEQ {
				continue
			}
			if t.op == expr.CmpEQ {
				dvdg = 1
			}
			rows = p.rows[:len(rows)+1]
			row := rows[len(rows)-1]
			clear(row)
			for k := range t.grads {
				d, ok := t.grads[k].Eval(x, p.stack)
				if !ok {
					return evals
				}
				row[t.cols[k]] = dvdg * d
			}
			res = append(res, v)
		}
		if len(rows) == 0 {
			return evals
		}
		// Normal equations A = JᵀJ + λ·diag(JᵀJ), b = −Jᵀr.
		for j := range a {
			clear(a[j])
		}
		clear(b)
		for ri, row := range rows {
			for j := 0; j < n; j++ {
				if row[j] == 0 {
					continue
				}
				b[j] -= row[j] * res[ri]
				for k := 0; k <= j; k++ {
					a[j][k] += row[j] * row[k]
				}
			}
		}
		for j := 0; j < n; j++ {
			for k := j + 1; k < n; k++ {
				a[j][k] = a[k][j]
			}
		}
		improved := false
		for attempt := 0; attempt < 8; attempt++ {
			// Damped system.
			for j := 0; j < n; j++ {
				copy(ad[j], a[j])
				diag := a[j][j]
				if diag == 0 {
					diag = 1
				}
				ad[j][j] += lambda * diag
			}
			copy(bd, b)
			delta, ok := solveDense(ad, bd)
			if ok {
				trial := p.trial
				copy(trial, x)
				for j, s := range p.cols {
					trial[s] = box[s].Clamp(x[s] + delta[j])
				}
				ft, okT := p.eval(trial, p.gt)
				evals++
				if okT && ft < f {
					copy(x, trial)
					copy(p.gx, p.gt)
					f = ft
					lambda = math.Max(lambda/3, 1e-12)
					improved = true
					break
				}
			}
			lambda *= 4
		}
		if !improved {
			return evals
		}
	}
	return evals
}

// newMatrix returns an r×c zero matrix.
func newMatrix(r, c int) [][]float64 {
	m := make([][]float64, r)
	for j := range m {
		m[j] = make([]float64, c)
	}
	return m
}

// solveDense solves a·x = b by Gaussian elimination with partial pivoting.
// ok=false on (near-)singular systems.
func solveDense(a [][]float64, b []float64) ([]float64, bool) {
	n := len(b)
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-14 {
			return nil, false
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, true
}
