package symbolic

import (
	"fmt"

	"gesp/internal/check"
)

// Check validates the structural invariants of a symbolic result: the
// L/U pattern arrays, the column elimination forest, the supernode
// partition with its induced supernodal etree, the layout of the
// supernodes marked exact and the closure of U's columns over supernode
// runs (the two facts lu's fused column update relies on without
// re-deriving them). Everything downstream — the numeric kernels, the
// block structure, the task DAG, the distributed communication pattern
// — is derived from these arrays, so a corruption here surfaces later
// as a wrong answer or a schedule hazard; the gespcheck build calls this
// at the end of Factorize to catch it at the source.
func (r *Result) Check() error {
	n := r.N
	if err := check.Partition("symbolic: LPtr", r.LPtr, len(r.LInd)); err != nil {
		return err
	}
	if err := check.Partition("symbolic: UPtr", r.UPtr, len(r.UInd)); err != nil {
		return err
	}
	if len(r.LPtr) != n+1 || len(r.UPtr) != n+1 || len(r.Parent) != n {
		return fmt.Errorf("symbolic: array lengths inconsistent with N=%d", n)
	}
	for j := 0; j < n; j++ {
		lcol := r.LInd[r.LPtr[j]:r.LPtr[j+1]]
		if err := check.StrictlyIncreasingInBounds(
			fmt.Sprintf("symbolic: L(:,%d)", j), lcol, j+1, n); err != nil {
			return err
		}
		ucol := r.UInd[r.UPtr[j]:r.UPtr[j+1]]
		if len(ucol) == 0 || ucol[len(ucol)-1] != j {
			return fmt.Errorf("symbolic: U(:,%d) missing its diagonal as last entry", j)
		}
		if err := check.StrictlyIncreasingInBounds(
			fmt.Sprintf("symbolic: U(:,%d)", j), ucol, 0, j+1); err != nil {
			return err
		}
		// Etree consistency: the parent of j is the first strictly-lower
		// row of L(:,j), which also guarantees Parent[j] > j.
		want := -1
		if len(lcol) > 0 {
			want = lcol[0]
		}
		if r.Parent[j] != want {
			return fmt.Errorf("symbolic: Parent[%d] = %d, want %d (first L row)", j, r.Parent[j], want)
		}
	}
	// Supernode partition: contiguous, covering, and mutually consistent
	// with the column-to-supernode map.
	if err := check.Partition("symbolic: SupPtr", r.SupPtr, n); err != nil {
		return err
	}
	if len(r.SupOf) != n {
		return fmt.Errorf("symbolic: SupOf length %d, want %d", len(r.SupOf), n)
	}
	for s := 0; s < r.NumSupernodes(); s++ {
		if r.SupPtr[s] >= r.SupPtr[s+1] {
			return fmt.Errorf("symbolic: supernode %d is empty", s)
		}
		for j := r.SupPtr[s]; j < r.SupPtr[s+1]; j++ {
			if r.SupOf[j] != s {
				return fmt.Errorf("symbolic: SupOf[%d] = %d, want %d", j, r.SupOf[j], s)
			}
		}
	}
	// Exact supernodes: the layout the serial engine's fused update reads
	// without looking. Column kk holds rows kk+1..last (the dense
	// diagonal block) and then exactly the last column's rows, so the
	// columns of any run inside the supernode share one index list.
	if len(r.SupExact) != r.NumSupernodes() {
		return fmt.Errorf("symbolic: SupExact length %d, want %d", len(r.SupExact), r.NumSupernodes())
	}
	for s, exact := range r.SupExact {
		if !exact {
			continue
		}
		last := r.SupPtr[s+1] - 1
		tail := r.LColRows(last)
		for kk := r.SupPtr[s]; kk < last; kk++ {
			col := r.LColRows(kk)
			if len(col) != len(tail)+(last-kk) {
				return fmt.Errorf("symbolic: exact supernode %d: L(:,%d) has %d rows, want %d", s, kk, len(col), len(tail)+(last-kk))
			}
			for t := 0; t < last-kk; t++ {
				if col[t] != kk+1+t {
					return fmt.Errorf("symbolic: exact supernode %d: L(:,%d) row %d is %d, want %d (dense diagonal block)", s, kk, t, col[t], kk+1+t)
				}
			}
			for t, i := range tail {
				if col[last-kk+t] != i {
					return fmt.Errorf("symbolic: exact supernode %d: L(:,%d) differs from L(:,%d) below the diagonal block", s, kk, last)
				}
			}
		}
	}
	// Closure of the fill: the rows of U(:,j) inside a supernode are a
	// suffix of it (clipped at j-1), contiguous in UInd — what RunLast
	// reads off in one comparison.
	for j := 0; j < n; j++ {
		diag := r.UPtr[j+1] - 1
		for p := r.UPtr[j]; p < diag; p++ {
			k := r.UInd[p]
			e := r.SupPtr[r.SupOf[k]+1] - 1
			if e >= j {
				e = j - 1
			}
			if q := p + (e - k); q >= diag || r.UInd[q] != e {
				return fmt.Errorf("symbolic: U(:,%d) holds row %d but not every row up to %d of its supernode", j, k, e)
			}
		}
	}
	// The supernodal etree must be a forest with parents numbered after
	// children (the property the schedulers' topological sweeps rely on).
	for s, p := range r.SupEtree() {
		if p != -1 && (p <= s || p >= r.NumSupernodes()) {
			return fmt.Errorf("symbolic: supernode etree parent of %d is %d, not in (%d,%d)", s, p, s, r.NumSupernodes())
		}
	}
	return nil
}
