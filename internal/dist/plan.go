package dist

import "gesp/internal/mpisim"

// plan is the static schedule of one distributed run. With no pivoting
// the block skeleton, every block's owner and every message are fixed
// before numeric work starts, so one pass over the Structure groups each
// panel's blocks by the process row or column that owns them, and every
// rank reads its part of the schedule — which blocks it factors, which
// operands it receives and from whom, whom it sends to — from the
// groups of the panels it takes part in, never from a walk over the
// whole structure.
type plan struct {
	st    *Structure
	g     mpisim.Grid
	prune bool
	// l groups panel K's L blocks by process row, u block row K's U
	// blocks by process column.
	l, u panelGroups
	// steps[r] lists, ascending, the panels K at which rank r takes part
	// in the factorization: it factors the diagonal block, computes
	// blocks of the L or U panel, or holds operands of the rank-b
	// update. At every other iteration of the right-looking loop the
	// rank would do nothing at all, so it skips them.
	steps [][]int32
	// ws is the Schur-update scratch of every rank of the run: only one
	// rank runs at a time and RankBUpdateInto never yields, so the
	// world's updates never overlap, and the scratch warms up once per
	// run instead of once per rank.
	ws UpdateScratch
}

// panelGroups partitions each panel's blocks by the process row (L) or
// column (U) that owns them.
type panelGroups struct {
	m   int     // process rows (L) or columns (U)
	at  []int32 // at[K·m+key]: one plus the group of panel K owned by key, or 0
	ptr []int32 // panel K's groups are ptr[K] .. ptr[K+1]-1
	// key[g] is group g's process row or column; a panel's groups come
	// in order of their first block along the panel.
	key   []int32
	start []int32 // group g's members are idx[start[g]:start[g+1]]
	idx   []int32 // block positions within the panel, ascending per group
}

func newPlan(st *Structure, g mpisim.Grid, prune bool) *plan {
	p := &plan{st: st, g: g, prune: prune}
	p.l = groupPanels(st.ColL, g.PRow)
	p.u = groupPanels(st.RowU, g.PCol)
	p.steps = p.participants()
	return p
}

// participants builds steps from the panels' groups: at panel K the
// diagonal owner, the owners of L(·,K) blocks (the rows of l.keys(K) on
// column K mod PCol) and of U(K,·) blocks, and every rank holding an
// operand — a row of l.keys(K) on each process column that gets the L
// panel, a column of u.keys(K) on each process row that gets the U
// panel (see getsL and getsU).
func (p *plan) participants() [][]int32 {
	g, ns := p.g, p.st.N
	nr := g.PRow * g.PCol
	last := make([]int32, nr)
	for r := range last {
		last[r] = -1
	}
	count := make([]int, nr+1)
	// each visits the participants of panel k, each rank once.
	each := func(k int, f func(r int)) {
		add := func(r int) {
			if last[r] != int32(k) {
				last[r] = int32(k)
				f(r)
			}
		}
		kr, kc := k%g.PRow, k%g.PCol
		add(g.RankOf(kr, kc))
		lk, uk := p.l.keys(k), p.u.keys(k)
		for _, r := range lk {
			add(g.RankOf(int(r), kc))
			if p.prune {
				for _, c := range uk {
					add(g.RankOf(int(r), int(c)))
				}
			} else {
				for c := 0; c < g.PCol; c++ {
					add(g.RankOf(int(r), c))
				}
			}
		}
		for _, c := range uk {
			add(g.RankOf(kr, int(c)))
			if p.prune {
				for _, r := range lk {
					add(g.RankOf(int(r), int(c)))
				}
			} else {
				for r := 0; r < g.PRow; r++ {
					add(g.RankOf(r, int(c)))
				}
			}
		}
	}
	for k := 0; k < ns; k++ {
		each(k, func(r int) { count[r+1]++ })
	}
	for r := 0; r < nr; r++ {
		count[r+1] += count[r]
	}
	slab := make([]int32, count[nr])
	fill := append([]int(nil), count[:nr]...)
	for r := range last {
		last[r] = -1
	}
	for k := 0; k < ns; k++ {
		each(k, func(r int) {
			slab[fill[r]] = int32(k)
			fill[r]++
		})
	}
	steps := make([][]int32, nr)
	for r := range steps {
		steps[r] = slab[count[r]:count[r+1]:count[r+1]]
	}
	return steps
}

// groupPanels groups the entries of each list by their residue mod m.
func groupPanels(lists [][]int, m int) panelGroups {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	pg := panelGroups{
		m: m, at: make([]int32, len(lists)*m), ptr: make([]int32, 1, len(lists)+1),
		key: make([]int32, 0, n), start: make([]int32, 1, n+1), idx: make([]int32, n),
	}
	for k, l := range lists {
		at := pg.at[k*m : (k+1)*m]
		first := len(pg.key)
		for _, v := range l {
			if at[v%m] == 0 {
				pg.key = append(pg.key, int32(v%m))
				pg.start = append(pg.start, 0)
				at[v%m] = int32(len(pg.key))
			}
			pg.start[at[v%m]]++ // start[g+1] counts group g
		}
		// Turn the counts into ends, shift them into beginnings, and fill:
		// the fill cursor moves each group's beginning to its end.
		for g := first; g < len(pg.key); g++ {
			pg.start[g+1] += pg.start[g]
		}
		for g := len(pg.key) - 1; g >= first; g-- {
			pg.start[g+1] = pg.start[g]
		}
		for pos, v := range l {
			g := at[v%m]
			pg.idx[pg.start[g]] = int32(pos)
			pg.start[g]++
		}
		pg.ptr = append(pg.ptr, int32(len(pg.key)))
	}
	return pg
}

// group returns the positions of panel k's blocks owned by process row
// or column key, ascending (nil when there are none).
func (pg *panelGroups) group(k, key int) []int32 {
	g := pg.at[k*pg.m+key]
	if g == 0 {
		return nil
	}
	return pg.idx[pg.start[g-1]:pg.start[g]]
}

// keys returns the process rows or columns owning panel k's blocks, in
// order of first block.
func (pg *panelGroups) keys(k int) []int32 { return pg.key[pg.ptr[k]:pg.ptr[k+1]] }

// getsL reports whether process column c owns or receives panel K's L
// blocks: with EDAG pruning, the owner's column and the columns owning a
// supernode J with U(K,J) ≠ 0; without, every process column
// ("send-to-all"). getsU is the analogue for process row r and block
// row K's U blocks.
func (p *plan) getsL(k, c int) bool {
	return !p.prune || c == k%p.g.PCol || p.u.group(k, c) != nil
}

func (p *plan) getsU(k, r int) bool {
	return !p.prune || r == k%p.g.PRow || p.l.group(k, r) != nil
}
