package dist

import "gesp/internal/sparse"

// Redistribution: the paper's future-work section asks for "a good
// interface so the user knows how to input the matrix in the distributed
// manner" — the matrix arrives distributed (most naturally by contiguous
// row slices, as assembled by an application), and the solver must
// redistribute it into the 2-D block-cyclic layout its algorithms use.
// This file implements that interface and measures the redistribution
// traffic, so its cost can be compared against the factorization.

// RowSlice describes the contiguous row range [Lo, Hi) a rank contributes
// in the 1-D input distribution.
type RowSlice struct{ Lo, Hi int }

// Uniform1D splits n rows evenly over p ranks.
func Uniform1D(n, p int) []RowSlice {
	out := make([]RowSlice, p)
	for r := 0; r < p; r++ {
		out[r] = RowSlice{Lo: r * n / p, Hi: (r + 1) * n / p}
	}
	return out
}

// entryMsg carries matrix entries bound for one destination rank.
type entryMsg struct {
	rows, cols []int
	vals       []float64
}

// redistribute runs on every rank inside a world: each rank holds the
// rows in its slice of a (the full matrix is passed for convenience; a
// rank touches only its own rows) and exchanges entries so that
// afterwards the rank's (empty on entry) grid holds exactly the blocks
// the 2-D block-cyclic layout assigns to it.
func (w *worker) redistribute(a *sparse.CSC, slice RowSlice) {
	r, ns, sup := w.r, w.st.N, w.st.Sym.SupOf
	// Bucket the local rows' entries by destination rank.
	buckets := make([]*entryMsg, r.Size())
	for j := 0; j < a.Cols; j++ {
		bj := sup[j]
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			i := a.RowInd[k]
			if i < slice.Lo || i >= slice.Hi {
				continue
			}
			dst := w.owner(sup[i], bj)
			b := buckets[dst]
			if b == nil {
				b = &entryMsg{}
				buckets[dst] = b
			}
			b.rows = append(b.rows, i)
			b.cols = append(b.cols, j)
			b.vals = append(b.vals, a.Val[k])
		}
	}
	// Exchange: send each bucket, then receive one message from every
	// rank that has one for us — a deterministic all-to-all.
	scatterLocal := func(m *entryMsg) {
		for q := range m.rows {
			i, j := m.rows[q], m.cols[q]
			blk, _ := w.bg.Target(sup[i], sup[j])
			blk.Set(i, j, blk.At(i, j)+m.vals[q])
		}
	}
	// counts[d] = 1 when this rank sends to d.
	counts := make([]int, r.Size())
	for d, m := range buckets {
		if m != nil && d != r.ID() {
			counts[d] = 1
			r.Send(d, tagOf(tagGather, ns), m, 16*len(m.rows)+8*len(m.vals))
		}
	}
	if m := buckets[r.ID()]; m != nil {
		scatterLocal(m)
	}
	// Receive exactly the messages addressed to us. The destination sets
	// are data dependent, so the ranks first announce who-sends-to-whom
	// through rank 0 (a counting round), then receive accordingly.
	var senders []int
	if r.ID() == 0 {
		matrix := make([][]int, r.Size())
		matrix[0] = counts
		for src := 1; src < r.Size(); src++ {
			matrix[src] = r.Recv(src, tagOf(tagGather, ns+1)).([]int)
		}
		for dst := 1; dst < r.Size(); dst++ {
			var s []int
			for src := 0; src < r.Size(); src++ {
				if matrix[src][dst] > 0 {
					s = append(s, src)
				}
			}
			r.Send(dst, tagOf(tagGather, ns+2), s, 4*len(s))
		}
		for src := 0; src < r.Size(); src++ {
			if matrix[src][0] > 0 {
				senders = append(senders, src)
			}
		}
	} else {
		r.Send(0, tagOf(tagGather, ns+1), counts, 4*len(counts))
		senders, _ = r.Recv(0, tagOf(tagGather, ns+2)).([]int)
	}
	for _, src := range senders {
		scatterLocal(r.Recv(src, tagOf(tagGather, ns)).(*entryMsg))
	}
}
