// Package summary is the generic bottom-up function-summary fixpoint
// engine of the interprocedural analyzers: given the whole-program call
// graph, it computes one fact per function by folding callee facts into
// callers until nothing changes. Recursion is handled by the worklist
// (a cycle converges because flow functions must be monotone).
//
// The canonical instantiation is Taint — "can this function's
// transitive call closure do the forbidden thing, and via which path" —
// used by hotalloc (allocation) and detclock (wall-clock and
// unseeded randomness). Each tainted function records one witness: a
// local site or the call edge to a tainted callee, so a diagnostic can
// carry the full blame path from an annotated root down to the
// offending statement.
package summary

import (
	"fmt"
	"go/token"
	"strings"

	"gesp/internal/analysis/callgraph"
)

// Engine computes one fact of type F per module node, bottom-up.
type Engine[F any] struct {
	Graph *callgraph.Graph
	// Local computes a node's initial fact from its own body alone.
	Local func(n *callgraph.Node) F
	// Flow folds the callee's fact into the caller's current fact at
	// edge e, reporting whether the caller's fact changed. Flow must be
	// monotone: once changed, repeated application must converge.
	Flow func(e *callgraph.Edge, callee, caller F) (F, bool)
}

// Solve runs the fixpoint and returns the final facts. External nodes
// (bodies outside the program) are not iterated; encode policies about
// them in Local or in edge handling.
func (eng *Engine[F]) Solve() map[*callgraph.Node]F {
	facts := make(map[*callgraph.Node]F, len(eng.Graph.Nodes))
	for _, n := range eng.Graph.Nodes {
		facts[n] = eng.Local(n)
	}
	work := make([]*callgraph.Node, len(eng.Graph.Nodes))
	copy(work, eng.Graph.Nodes)
	queued := make(map[*callgraph.Node]bool, len(work))
	for _, n := range work {
		queued[n] = true
	}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		queued[n] = false
		for _, e := range n.In {
			c := e.Caller
			nf, changed := eng.Flow(e, facts[n], facts[c])
			if !changed {
				continue
			}
			facts[c] = nf
			if !queued[c] {
				queued[c] = true
				work = append(work, c)
			}
		}
	}
	return facts
}

// Taint is the reachability fact: Bad functions can transitively reach
// a forbidden operation. Exactly one witness form is set when Bad:
//
//   - local cause: Via == nil, Pos and What name the offending site in
//     this function's own body;
//   - edge cause: Via != nil and What != "", the call edge itself is
//     forbidden (a call to an external or annotated function);
//   - propagated: Via != nil and What == "", the cause lives further
//     down the chain at facts[Via.Callee].
type Taint struct {
	Bad  bool
	Pos  token.Pos
	What string
	Via  *callgraph.Edge
}

// TaintSpec configures a reachability analysis.
type TaintSpec struct {
	Graph *callgraph.Graph
	// Local returns the node's own offending site, if any.
	Local func(n *callgraph.Node) (token.Pos, string, bool)
	// Clean forces a node's fact clean regardless of body and callees:
	// sanctioned (annotated) functions.
	Clean func(n *callgraph.Node) bool
	// SkipEdge excludes an edge from propagation: waived call sites.
	SkipEdge func(e *callgraph.Edge) bool
	// EdgeTaint marks an edge forbidden by the callee's declaration
	// alone — a call to an external function assumed dirty, or to an
	// annotated function — independent of the callee's computed fact.
	EdgeTaint func(e *callgraph.Edge) (string, bool)
}

// Solve runs the taint fixpoint.
func (s TaintSpec) Solve() map[*callgraph.Node]Taint {
	skip := func(e *callgraph.Edge) bool { return s.SkipEdge != nil && s.SkipEdge(e) }
	clean := func(n *callgraph.Node) bool { return s.Clean != nil && s.Clean(n) }
	eng := &Engine[Taint]{
		Graph: s.Graph,
		Local: func(n *callgraph.Node) Taint {
			if clean(n) {
				return Taint{}
			}
			if s.Local != nil {
				if pos, what, ok := s.Local(n); ok {
					return Taint{Bad: true, Pos: pos, What: what}
				}
			}
			if s.EdgeTaint != nil {
				for _, e := range n.Out {
					if skip(e) {
						continue
					}
					if what, ok := s.EdgeTaint(e); ok {
						return Taint{Bad: true, Via: e, What: what}
					}
				}
			}
			return Taint{}
		},
		Flow: func(e *callgraph.Edge, callee, caller Taint) (Taint, bool) {
			if caller.Bad || !callee.Bad || clean(e.Caller) || skip(e) {
				return caller, false
			}
			return Taint{Bad: true, Via: e}, true
		},
	}
	return eng.Solve()
}

// Blame walks the witness chain from start down to its cause: the edges
// taken, and the terminal taint (a local cause, or an edge cause whose
// What describes the final hop). start must be Bad.
func Blame(facts map[*callgraph.Node]Taint, start *callgraph.Node) ([]*callgraph.Edge, Taint) {
	var path []*callgraph.Edge
	cur := facts[start]
	seen := map[*callgraph.Node]bool{start: true}
	for cur.Bad && cur.Via != nil {
		path = append(path, cur.Via)
		if cur.What != "" {
			return path, cur
		}
		next := cur.Via.Callee
		if seen[next] {
			break
		}
		seen[next] = true
		cur = facts[next]
	}
	return path, cur
}

// RenderBlame formats a blame path for a diagnostic: each hop as
// "name (call at file:line)" joined by " → ", ending in the terminal
// cause. Positions are rendered relative to the FileSet.
func RenderBlame(fset *token.FileSet, start *callgraph.Node, path []*callgraph.Edge, sink Taint) string {
	var b strings.Builder
	b.WriteString(start.Name())
	for _, e := range path {
		fmt.Fprintf(&b, " → %s (call at %s)", e.Callee.Name(), shortPos(fset, e.Pos))
	}
	if sink.What != "" {
		if sink.Via != nil {
			fmt.Fprintf(&b, ": %s", sink.What)
		} else {
			fmt.Fprintf(&b, ": %s at %s", sink.What, shortPos(fset, sink.Pos))
		}
	}
	return b.String()
}

// shortPos renders file:line with the directory prefix trimmed to the
// last path element, keeping diagnostics readable.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}
