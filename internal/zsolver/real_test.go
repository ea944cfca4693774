package zsolver

import (
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"gesp/internal/core"
	"gesp/internal/matgen"
	"gesp/internal/ordering"
	"gesp/internal/resilience"
	"gesp/internal/sparse"
	"gesp/internal/zsparse"
)

// asComplex returns a as a complex matrix with zero imaginary parts.
func asComplex(a *sparse.CSC) *zsparse.CSC {
	z := &zsparse.CSC{Rows: a.Rows, Cols: a.Cols, ColPtr: a.ColPtr, RowInd: a.RowInd, Val: make([]complex128, len(a.Val))}
	for k, v := range a.Val {
		z.Val[k] = complex(v, 0)
	}
	return z
}

// testbedMatrix is a zero-diagonal testbed matrix, so the matching and
// ZeroDiagsIn have work to do.
func testbedMatrix(t *testing.T) *sparse.CSC {
	t.Helper()
	m, ok := matgen.Lookup("GEMAT11")
	if !ok {
		t.Fatal("GEMAT11 not in the testbed")
	}
	return m.Generate(0.3)
}

// The complex solver on a real matrix is the real solver: the same
// analysis, so the same structure and matching, and the same solution up
// to rounding.
func TestComplexMatchesRealOnRealInput(t *testing.T) {
	a := testbedMatrix(t)
	n := a.Rows
	opts := core.DefaultOptions()
	rs, err := core.New(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	zs, err := New(asComplex(a), opts)
	if err != nil {
		t.Fatal(err)
	}
	r, z := rs.Stats(), zs.Stats()
	if r.ZeroDiagsIn == 0 {
		t.Fatal("test matrix has no zero diagonal")
	}
	if z.NnzLU != r.NnzLU || z.NumSuper != r.NumSuper || z.DiagLogProd != r.DiagLogProd || z.ZeroDiagsIn != r.ZeroDiagsIn {
		t.Errorf("complex NnzLU/NumSuper/DiagLogProd/ZeroDiagsIn = %d/%d/%g/%d, real %d/%d/%g/%d",
			z.NnzLU, z.NumSuper, z.DiagLogProd, z.ZeroDiagsIn, r.NnzLU, r.NumSuper, r.DiagLogProd, r.ZeroDiagsIn)
	}
	if z.Flops != 4*r.Flops {
		t.Errorf("complex Flops %d, want 4 × real %d", z.Flops, r.Flops)
	}

	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	xr, err := rs.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	bz := make([]complex128, n)
	for i, v := range b {
		bz[i] = complex(v, 0)
	}
	xz, err := zs.Solve(bz)
	if err != nil {
		t.Fatal(err)
	}
	num, den := 0.0, 0.0
	for i := range xr {
		num = math.Max(num, cmplx.Abs(xz[i]-complex(xr[i], 0)))
		den = math.Max(den, math.Abs(xr[i]))
	}
	t.Logf("n=%d relative difference %.2g", n, num/den)
	if num > 1e-12*den {
		t.Errorf("complex and real solutions differ by %g relative", num/den)
	}
}

// Options with no complex counterpart are refused by name; the analysis
// options reach core's analysis.
func TestComplexOptions(t *testing.T) {
	a := testbedMatrix(t)
	za := asComplex(a)
	def, err := core.NewAnalysis(a, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		set    func(*core.Options)
		refuse string // the name in the error, or "" to accept
	}{
		{"aggressive", func(o *core.Options) { o.AggressivePivot = true }, "AggressivePivot"},
		{"extra", func(o *core.Options) { o.ExtraPrecision = true }, "ExtraPrecision"},
		{"resilience", func(o *core.Options) { o.Resilience = &resilience.Policy{} }, "Resilience"},
		{"workers", func(o *core.Options) { o.Workers = 2 }, "Workers"},
		{"natural", func(o *core.Options) { o.Ordering = ordering.Natural }, ""},
		{"relax", func(o *core.Options) { o.Relax = 4 }, ""},
		{"maxsuper", func(o *core.Options) { o.MaxSuper = 2 }, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := core.DefaultOptions()
			tc.set(&opts)
			s, err := New(za, opts)
			if tc.refuse != "" {
				if err == nil || !strings.Contains(err.Error(), tc.refuse) {
					t.Fatalf("err = %v, want a refusal naming %s", err, tc.refuse)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.NewAnalysis(a, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, w, d := s.Stats(), want.Stats(), def.Stats()
			if got.NnzLU != w.NnzLU || got.NumSuper != w.NumSuper {
				t.Errorf("NnzLU/NumSuper = %d/%d, core's analysis %d/%d", got.NnzLU, got.NumSuper, w.NnzLU, w.NumSuper)
			}
			if w.NnzLU == d.NnzLU && w.NumSuper == d.NumSuper {
				t.Errorf("option leaves NnzLU/NumSuper at the default's %d/%d", d.NnzLU, d.NumSuper)
			}
		})
	}
}
