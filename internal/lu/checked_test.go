//go:build gespcheck

package lu_test

import (
	"math/rand"
	"strings"
	"testing"

	"gesp/internal/lu"
	"gesp/internal/symbolic"
)

// TestNewScheduleChecksItsTree proves the gespcheck wiring: a structure
// that does not belong to the matrix (tridiagonal fill over a diagonal
// matrix's tree of singletons) makes NewSchedule panic before any
// worker could read a column outside its subtree.
func TestNewScheduleChecksItsTree(t *testing.T) {
	sym := symbolicOf(t, tridiagonal(8), symbolic.Options{})
	defer func() {
		msg, ok := recover().(string)
		if !ok || !strings.HasPrefix(msg, "gespcheck:") || !strings.Contains(msg, "not in the subtree") {
			t.Fatalf("panic = %q, want the dependency-tree check", msg)
		}
	}()
	lu.NewSchedule(diagonal(8), sym, 2)
}

// TestScheduleCheckDetectsCorruption corrupts each property Factorize
// relies on: every column assigned once, ascending lists, and no
// worker's column reading a column outside its own subtree.
func TestScheduleCheckDetectsCorruption(t *testing.T) {
	a := twoMeshes(rand.New(rand.NewSource(26)))
	sym := symbolicOf(t, a, symbolic.Options{})
	fresh := func() *lu.Schedule { return lu.NewSchedule(a, sym, 2) }
	if err := fresh().Check(); err != nil {
		t.Fatalf("fresh schedule rejected: %v", err)
	}
	for _, c := range []struct {
		name, want string
		corrupt    func(sc *lu.Schedule)
	}{
		{"column twice", "twice", func(sc *lu.Schedule) {
			// The smaller mesh's last column, above the whole top.
			sc.Top = append(sc.Top, sym.N-1)
		}},
		{"column missing", "unassigned", func(sc *lu.Schedule) { sc.Top = sc.Top[1:] }},
		{"top descending", "unsorted", func(sc *lu.Schedule) { sc.Top[0], sc.Top[1] = sc.Top[1], sc.Top[0] }},
		{"subtree split across workers", "outside its subtree", func(sc *lu.Schedule) {
			// Hand worker 0's last column — a subtree root, which reads
			// the columns below it — to worker 1.
			last := sc.Own[0][len(sc.Own[0])-1]
			sc.Own[0] = sc.Own[0][:len(sc.Own[0])-1]
			sc.Own[1] = insertSorted(sc.Own[1], last)
		}},
	} {
		sc := fresh()
		c.corrupt(sc)
		if err := sc.Check(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Check = %v, want %q", c.name, err, c.want)
		}
	}
}

func insertSorted(list []int, x int) []int {
	out := make([]int, 0, len(list)+1)
	for _, v := range list {
		if x >= 0 && x < v {
			out, x = append(out, x), -1
		}
		out = append(out, v)
	}
	if x >= 0 {
		out = append(out, x)
	}
	return out
}
