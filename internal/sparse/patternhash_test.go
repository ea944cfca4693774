package sparse

import (
	"math/rand"
	"testing"
)

// cscOf builds a CSC from (i, j, v) triples for terse test fixtures.
func cscOf(rows, cols int, entries [][3]float64) *CSC {
	t := NewTriplet(rows, cols)
	for _, e := range entries {
		t.Append(int(e[0]), int(e[1]), e[2])
	}
	return t.ToCSC()
}

func TestPatternHashValueIndependent(t *testing.T) {
	a := cscOf(3, 3, [][3]float64{{0, 0, 1}, {1, 0, -2}, {1, 1, 3}, {2, 2, 4}, {0, 2, 5}})
	b := a.Clone()
	for k := range b.Val {
		b.Val[k] = float64(100 + k)
	}
	if PatternHash(a) != PatternHash(b) {
		t.Fatal("PatternHash changed when only values changed")
	}
	if ValueHash(a) == ValueHash(b) {
		t.Fatal("ValueHash collided across different values")
	}
	if ValueHash(a) != ValueHash(a.Clone()) {
		t.Fatal("ValueHash not deterministic on a clone")
	}
}

// TestPatternHashCollisions feeds a family of deliberately confusable
// patterns — same nnz redistributed, transposes, diagonal shifts, a
// column-boundary move, dimension-only changes — and requires all
// fingerprints to be pairwise distinct.
func TestPatternHashCollisions(t *testing.T) {
	mats := map[string]*CSC{
		"diag3":      Identity(3),
		"diag4":      Identity(4),
		"lower":      cscOf(3, 3, [][3]float64{{0, 0, 1}, {1, 0, 1}, {2, 1, 1}}),
		"upper":      cscOf(3, 3, [][3]float64{{0, 0, 1}, {0, 1, 1}, {1, 2, 1}}), // transpose of lower
		"firstcol":   cscOf(3, 3, [][3]float64{{0, 0, 1}, {1, 0, 1}, {2, 0, 1}}),
		"lastcol":    cscOf(3, 3, [][3]float64{{0, 2, 1}, {1, 2, 1}, {2, 2, 1}}),
		"boundary-a": cscOf(2, 2, [][3]float64{{0, 0, 1}, {1, 0, 1}}),
		"boundary-b": cscOf(2, 2, [][3]float64{{0, 0, 1}, {0, 1, 1}}),
		"boundary-c": cscOf(2, 2, [][3]float64{{1, 0, 1}, {0, 1, 1}}),
		"tall":       cscOf(4, 2, [][3]float64{{0, 0, 1}, {3, 1, 1}}),
		"wide":       cscOf(2, 4, [][3]float64{{0, 0, 1}, {1, 3, 1}}),
		"empty2":     cscOf(2, 2, nil),
		"empty3":     cscOf(3, 3, nil),
	}
	seen := map[uint64]string{}
	for _, name := range []string{
		"diag3", "diag4", "lower", "upper", "firstcol", "lastcol",
		"boundary-a", "boundary-b", "boundary-c", "tall", "wide", "empty2", "empty3",
	} {
		h := PatternHash(mats[name])
		if prev, dup := seen[h]; dup {
			t.Fatalf("PatternHash collision: %q and %q both hash to %#x", prev, name, h)
		}
		seen[h] = name
	}
}

func TestPatternHashDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := NewTriplet(40, 40)
	for k := 0; k < 300; k++ {
		tr.Append(rng.Intn(40), rng.Intn(40), rng.NormFloat64())
	}
	a := tr.ToCSC()
	h := PatternHash(a)
	for r := 0; r < 5; r++ {
		if PatternHash(a) != h {
			t.Fatal("PatternHash not stable across calls")
		}
	}
	if PatternHash(a.Clone()) != h {
		t.Fatal("PatternHash differs on a deep clone")
	}
}

// FuzzPatternHash drives randomly-shaped triplet matrices through the
// fingerprint and checks the contract: value-independent, clone-stable,
// and sensitive to any single structural mutation.
func FuzzPatternHash(f *testing.F) {
	f.Add(int64(1), 5, 12)
	f.Add(int64(2), 1, 0)
	f.Add(int64(3), 17, 60)
	f.Add(int64(99), 8, 8)
	f.Fuzz(func(t *testing.T, seed int64, n, nnz int) {
		if n < 1 || n > 64 || nnz < 0 || nnz > 512 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		tr := NewTriplet(n, n)
		for k := 0; k < nnz; k++ {
			tr.Append(rng.Intn(n), rng.Intn(n), 1+rng.Float64())
		}
		a := tr.ToCSC()
		h := PatternHash(a)

		// Value-independent: rewrite every value, hash must not move.
		b := a.Clone()
		for k := range b.Val {
			b.Val[k] = rng.NormFloat64()
		}
		if PatternHash(b) != h {
			t.Fatalf("hash depends on values: %#x vs %#x", PatternHash(b), h)
		}

		// Structural sensitivity: move one entry to a row not already
		// present in its column; the fingerprint must change.
		if a.Nnz() > 0 {
			c := a.Clone()
			j := 0
			for c.ColPtr[j+1] == c.ColPtr[j] {
				j++
			}
			k := c.ColPtr[j]
			present := make(map[int]bool)
			for q := c.ColPtr[j]; q < c.ColPtr[j+1]; q++ {
				present[c.RowInd[q]] = true
			}
			moved := false
			for i := 0; i < n; i++ {
				if !present[i] {
					c.RowInd[k] = i
					moved = true
					break
				}
			}
			if moved {
				// Restore sortedness within the column.
				sortInts(c.RowInd[c.ColPtr[j]:c.ColPtr[j+1]])
				if PatternHash(c) == h {
					t.Fatal("hash unchanged after moving a structural entry")
				}
			}
		}
	})
}
