package fleetha

// view is a node's replica of the leader's membership: the shard
// address list (ids = indexes), the dead ids and the ring generation,
// stamped with the high-water mark (term, seq) of the leader batch it
// came from. The registry is not part of it: the node keeps one
// fleetrpc.Registry for its lifetime, and every path writes that.
//
// A leader numbers its batches from its own counter, which never
// resets, so sequence numbers from different leaders do not compare: a
// view orders by term first, and the later term heard the later
// leader.
type view struct {
	term, seq uint64
	shards    []string
	dead      []int
	ringGen   uint64
}

// adopt takes o in place of v when o's high-water mark orders after
// v's; an o with no shard list keeps v's. Neither view's slices are
// ever written in place, so views may share them.
func (v *view) adopt(o view) {
	if o.term < v.term || (o.term == v.term && o.seq <= v.seq) {
		return
	}
	if len(o.shards) == 0 {
		o.shards = v.shards
	}
	*v = o
}

func (r ReplicateRequest) view() view {
	return view{term: r.Term, seq: r.Seq, shards: r.Shards, dead: r.Dead, ringGen: r.RingGen}
}

func (s StateResponse) view() view {
	return view{term: s.Term, seq: s.AppliedSeq, shards: s.Shards, dead: s.Dead, ringGen: s.RingGen}
}
