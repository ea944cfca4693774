package symbolic

import (
	"testing"

	"gesp/internal/sparse"
)

// fuzzPattern decodes data into a square pattern: the first byte gives
// n ≤ 40, the second the options, and every following pair of bytes one
// entry (row, column), both mod n.
func fuzzPattern(data []byte) (*sparse.CSC, Options) {
	var head [2]byte
	copy(head[:], data)
	n := int(head[0]) % 41
	opts := Options{MaxSuper: []int{0, 1, 24}[head[1]%3], Relax: 4 * int(head[1]/3%2)}
	t := sparse.NewTriplet(n, n)
	for p := 2; n > 0 && p+1 < len(data); p += 2 {
		t.Append(int(data[p])%n, int(data[p+1])%n, 1)
	}
	return t.ToCSC(), opts
}

// FuzzFactorize holds Factorize to the per-column-sort oracle, to the
// dense no-pivot elimination and to Result.Check on arbitrary patterns.
// Run with `go test -fuzz=FuzzFactorize`; the seed corpus runs in normal
// test mode.
func FuzzFactorize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0})
	f.Add([]byte{3, 1, 1, 0, 0, 1, 2, 2})             // zero diagonal in columns 0 and 1
	f.Add([]byte{6, 3, 5, 0, 0, 5, 3, 1, 1, 4, 2, 2}) // empty columns, fill from the corners
	f.Add([]byte{5, 0, 2, 0, 0, 4, 3, 4})             // U(:,4) is found as {0,3,2}
	f.Add([]byte{12, 4, 0, 11, 11, 0, 3, 7, 7, 3, 5, 9, 9, 5, 1, 2, 2, 1, 10, 4, 4, 10, 6, 8, 8, 6})
	dense := []byte{40, 5}
	for i := byte(0); i < 40; i += 3 {
		for j := byte(1); j < 40; j += 4 {
			dense = append(dense, i, j)
		}
	}
	f.Add(dense)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, opts := fuzzPattern(data)
		got, err := Factorize(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "fuzz", got, referenceFactorize(a, opts))
		patternsMatch(t, a, got)
		if err := got.Check(); err != nil {
			t.Fatal(err)
		}
	})
}
