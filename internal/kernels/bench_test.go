package kernels

import (
	"fmt"
	"math/rand"
	"testing"
)

// Benchmarks for the micro-kernels at supernodal shapes (maxSuper = 24
// panels). Run via `make bench`.

func benchData(m, n, k int, zeroFrac int) (a, b, p []float64) {
	rng := rand.New(rand.NewSource(11))
	a = make([]float64, m*k)
	b = make([]float64, k*n)
	p = make([]float64, m*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		if zeroFrac > 0 && rng.Intn(zeroFrac) == 0 {
			continue
		}
		b[i] = rng.NormFloat64()
	}
	return a, b, p
}

func BenchmarkMatMul(bb *testing.B) {
	for _, sh := range []struct{ m, n, k int }{{192, 24, 24}, {384, 24, 24}, {48, 8, 8}} {
		a, b, p := benchData(sh.m, sh.n, sh.k, 5)
		flops := int64(2 * sh.m * sh.n * sh.k)
		bb.Run(fmt.Sprintf("%dx%dx%d", sh.m, sh.n, sh.k), func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				MatMul(p, a, b, sh.m, sh.n, sh.k)
			}
			bb.SetBytes(8 * int64(sh.m*sh.k+sh.k*sh.n+sh.m*sh.n))
			bb.ReportMetric(float64(flops)*float64(bb.N)/bb.Elapsed().Seconds()/1e6, "Mflops")
		})
	}
}

func BenchmarkTrsmUpperRight(bb *testing.B) {
	const nr, nc = 192, 24
	rng := rand.New(rand.NewSource(12))
	d := make([]float64, nc*nc)
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	for i := 0; i < nc; i++ {
		d[i*nc+i] = 2
	}
	b := make([]float64, nr*nc)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	bb.ReportAllocs()
	bb.ResetTimer()
	for i := 0; i < bb.N; i++ {
		TrsmUpperRight(b, nr, nc, d, nc)
	}
}

func BenchmarkTrsmLowerUnitLeft(bb *testing.B) {
	const nr, nc = 24, 24
	rng := rand.New(rand.NewSource(13))
	d := make([]float64, nr*nr)
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	b := make([]float64, nr*nc)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	bb.ReportAllocs()
	bb.ResetTimer()
	for i := 0; i < bb.N; i++ {
		TrsmLowerUnitLeft(b, nr, nc, d, nr)
	}
}

func BenchmarkRank1Trailing(bb *testing.B) {
	const n = 24
	rng := rand.New(rand.NewSource(14))
	v := make([]float64, n*n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	bb.ReportAllocs()
	bb.ResetTimer()
	for i := 0; i < bb.N; i++ {
		for k := 0; k < n; k++ {
			Rank1Trailing(v, n, k)
		}
	}
}

func BenchmarkSpAxpy(bb *testing.B) {
	rng := rand.New(rand.NewSource(15))
	w := make([]float64, 4096)
	ind := make([]int, 256)
	for i := range ind {
		ind[i] = i * 16
	}
	val := make([]float64, len(ind))
	for i := range val {
		val[i] = rng.NormFloat64()
	}
	bb.ReportAllocs()
	bb.ResetTimer()
	for i := 0; i < bb.N; i++ {
		SpAxpy(w, ind, val, 0.5)
	}
}

// BenchmarkSpAxpy4 applies a 24-column supernode with 192 rows below its
// diagonal block to one accumulator, four columns per pass.
func BenchmarkSpAxpy4(bb *testing.B) {
	rng := rand.New(rand.NewSource(16))
	const rows, cols = 192, 24
	w := make([]float64, 4096)
	ind := make([]int, rows)
	for i := range ind {
		ind[i] = i * 16
	}
	val := make([]float64, rows*cols)
	for i := range val {
		val[i] = rng.NormFloat64()
	}
	col := func(c int) []float64 { return val[c*rows : (c+1)*rows] }
	bb.ReportAllocs()
	bb.ResetTimer()
	for i := 0; i < bb.N; i++ {
		for c := 0; c < cols; c += 4 {
			SpAxpy4(w, ind, col(c), col(c+1), col(c+2), col(c+3), 0.5, 0.25, -0.5, 0.125)
		}
	}
	bb.ReportMetric(2*rows*cols*float64(bb.N)/bb.Elapsed().Seconds()/1e6, "Mflops")
}
