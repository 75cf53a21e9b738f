package nlp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"absolver/internal/expr"
	"absolver/internal/interval"
)

func TestSolveDense(t *testing.T) {
	// 2x + y = 5, x − y = 1 → x = 2, y = 1.
	a := [][]float64{{2, 1}, {1, -1}}
	b := []float64{5, 1}
	x, ok := solveDense(a, b)
	if !ok {
		t.Fatal("solvable system rejected")
	}
	if math.Abs(x[0]-2) > 1e-9 || math.Abs(x[1]-1) > 1e-9 {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveDenseSingular(t *testing.T) {
	a := [][]float64{{1, 1}, {2, 2}}
	b := []float64{1, 3}
	if _, ok := solveDense(a, b); ok {
		t.Fatal("singular system accepted")
	}
}

func TestSolveDensePivoting(t *testing.T) {
	// Requires row exchange (zero leading pivot).
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{3, 4}
	x, ok := solveDense(a, b)
	if !ok || math.Abs(x[0]-4) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Fatalf("x = %v ok=%v", x, ok)
	}
}

func TestSolveDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(6)
		a := make([][]float64, n)
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = rng.Float64()*10 - 5
		}
		b := make([]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.Float64()*4 - 2
			}
			for j := range a[i] {
				b[i] += a[i][j] * x0[j]
			}
		}
		// Copy since solveDense destroys its inputs.
		ac := make([][]float64, n)
		for i := range a {
			ac[i] = append([]float64(nil), a[i]...)
		}
		bc := append([]float64(nil), b...)
		x, ok := solveDense(ac, bc)
		if !ok {
			continue // singular draw
		}
		for i := range a {
			s := 0.0
			for j := range a[i] {
				s += a[i][j] * x[j]
			}
			if math.Abs(s-b[i]) > 1e-6*(1+math.Abs(b[i])) {
				t.Fatalf("iter %d: residual row %d: %g vs %g", iter, i, s, b[i])
			}
		}
	}
}

func TestPolishConvergesOnTightEquality(t *testing.T) {
	// Start near a root of x² = 2 and polish to high precision.
	a, err := expr.ParseAtom("x * x = 2", expr.Real)
	if err != nil {
		t.Fatal(err)
	}
	pen := newPenalty([]expr.Atom{a}, []string{"x"})
	x := []float64{1.3}
	polish(context.Background(), pen, x, []interval.Interval{interval.New(0, 10)})
	if math.Abs(x[0]-math.Sqrt2) > 1e-7 {
		t.Fatalf("x = %v, want √2", x[0])
	}
}

func TestPolishRespectsBox(t *testing.T) {
	a, err := expr.ParseAtom("x = 100", expr.Real)
	if err != nil {
		t.Fatal(err)
	}
	pen := newPenalty([]expr.Atom{a}, []string{"x"})
	x := []float64{2}
	polish(context.Background(), pen, x, []interval.Interval{interval.New(0, 5)})
	if x[0] < 0 || x[0] > 5 {
		t.Fatalf("x = %v escaped the box", x[0])
	}
}
