package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"gesp/internal/mpisim"
)

// Coordinated checkpointing for the distributed factorization. A
// checkpoint is cut at the barrier at the top of an iteration of the
// non-pipelined right-looking loop, where two facts make it consistent
// with no message logging at all:
//
//   - every panel broadcast and diagonal-block message of iterations
//     < k has been consumed (its receivers needed it to reach the
//     barrier), and
//   - no message of iterations ≥ k has been sent yet,
//
// so the mailboxes are provably empty and the global state is exactly
// "panels < k finished, trailing matrix partially updated through
// them". Each rank serializes its owned blocks bit-exactly plus its
// simulator counters; restart re-allocates the block skeleton, overlays
// the saved values, and re-runs the loop from the frontier.
// Because the block kernels are sequential and deterministic per rank
// and message contents are values, the replayed tail reproduces the
// fault-free factors bit-identically (verified by fingerprint).

// Checkpoint is one committed, globally consistent factorization
// snapshot.
type Checkpoint struct {
	// Frontier is the next panel to execute on resume (N = factorization
	// complete, only the solve remains).
	Frontier int
	// Snaps[i] is rank i's simulator counters at the cut.
	Snaps []mpisim.Snapshot
	// Blocks[i] is rank i's owned blocks, serialized by BlockGrid.encode.
	Blocks [][]byte
	// Tinies[i] is rank i's tiny-pivot replacement count at the cut.
	Tinies []int
	// Bytes is the total serialized size, for overhead reporting.
	Bytes int
}

// MaxClock returns the latest rank clock at the cut.
func (c *Checkpoint) MaxClock() float64 {
	m := 0.0
	for _, s := range c.Snaps {
		if s.Clock > m {
			m = s.Clock
		}
	}
	return m
}

// encode serializes the blocks this grid owns, in block-id order:
//
//	[8]nblocks | nblocks × ( [8]id [8]nvals  nvals × [8]float64-bits )
//
// Values are raw IEEE-754 bits, so a restore is bit-identical to the
// checkpointed state.
func (g *BlockGrid) encode() []byte {
	n, size := 0, 8
	for _, b := range g.slots {
		if b != nil {
			n++
			size += 16 + 8*len(b.Val)
		}
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	for id, b := range g.slots {
		if b == nil {
			continue
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(b.Val)))
		for _, v := range b.Val {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf
}

// decode overwrites the grid's owned blocks with a blob written by
// encode on a grid of the same structure and ownership. Shape
// information is never serialized — it is a pure function of the
// symbolic analysis — so the blob must name exactly the owned blocks,
// in id order, with their value counts.
func (g *BlockGrid) decode(blob []byte) error {
	pos := 0
	get := func() (uint64, error) {
		if pos+8 > len(blob) {
			return 0, fmt.Errorf("dist: truncated checkpoint blob at offset %d", pos)
		}
		v := binary.LittleEndian.Uint64(blob[pos : pos+8])
		pos += 8
		return v, nil
	}
	n, err := get()
	if err != nil {
		return err
	}
	owned := 0
	for _, b := range g.slots {
		if b != nil {
			owned++
		}
	}
	if n != uint64(owned) {
		return fmt.Errorf("dist: checkpoint has %d blocks, skeleton has %d", n, owned)
	}
	for id, b := range g.slots {
		if b == nil {
			continue
		}
		key, err := get()
		if err != nil {
			return err
		}
		nvals, err := get()
		if err != nil {
			return err
		}
		if key != uint64(id) {
			return fmt.Errorf("dist: checkpoint names block %d where the skeleton has block %d", key, id)
		}
		if nvals != uint64(len(b.Val)) {
			return fmt.Errorf("dist: checkpoint block %d has %d values, skeleton wants %d", id, nvals, len(b.Val))
		}
		for j := range b.Val {
			bits, err := get()
			if err != nil {
				return err
			}
			b.Val[j] = math.Float64frombits(bits)
		}
	}
	return nil
}

// ckptCollector assembles per-rank contributions into committed
// checkpoints. Contributions for one frontier all arrive between the
// barrier that opens the cut and the next runtime operation, so cuts
// never interleave; a checkpoint commits only once every rank has
// contributed, and a failure mid-cut leaves the previous commit intact.
type ckptCollector struct {
	mu sync.Mutex
	p  int
	//gesp:guardedby:mu
	frontier int
	//gesp:guardedby:mu
	got int
	//gesp:guardedby:mu
	snaps []mpisim.Snapshot
	//gesp:guardedby:mu
	blobs [][]byte
	//gesp:guardedby:mu
	tinies []int
	//gesp:guardedby:mu
	committed *Checkpoint
	//gesp:guardedby:mu
	commits int
	//gesp:guardedby:mu
	bytes int
}

func newCkptCollector(p int) *ckptCollector {
	return &ckptCollector{p: p, frontier: -1}
}

func (c *ckptCollector) save(rank, frontier int, snap mpisim.Snapshot, blob []byte, tiny int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if frontier != c.frontier {
		c.frontier = frontier
		c.got = 0
		c.snaps = make([]mpisim.Snapshot, c.p)
		c.blobs = make([][]byte, c.p)
		c.tinies = make([]int, c.p)
	}
	c.snaps[rank], c.blobs[rank], c.tinies[rank] = snap, blob, tiny
	c.got++
	if c.got == c.p {
		total := 0
		for _, bl := range c.blobs {
			total += len(bl)
		}
		c.committed = &Checkpoint{
			Frontier: frontier, Snaps: c.snaps, Blocks: c.blobs,
			Tinies: c.tinies, Bytes: total,
		}
		c.commits++
		c.bytes += total
		c.snaps, c.blobs, c.tinies = nil, nil, nil
		c.frontier = -1
	}
}
