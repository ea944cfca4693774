// Package detclockip is the interprocedural extension of detclock: the
// deterministic simulation packages (mpisim, dist, faultsim, kernels)
// must not reach the host wall clock or the globally-seeded
// math/rand generator through *any* call chain, not just directly. The
// intraprocedural detclock flags direct time.Now/rand.Intn sites inside
// scoped packages; this analyzer propagates the taint bottom-up over
// the whole-program call graph and reports the frontier where it enters
// deterministic code:
//
//   - a call from a scoped function to a //gesp:wallclock-annotated
//     function (the sanctioned backstop mechanism) — the caller must
//     either be annotated itself or waive the call site;
//   - a call from a scoped function into non-scoped module code whose
//     transitive closure reads the clock, with the full blame path.
//
// Direct external wall-clock calls inside scoped packages are left to
// detclock, which already reports those exact sites.
//
// Waivers: a function-level //gesp:wallclock directive sanctions the
// function's own body and is legitimized by doc-comment prose; a
// site-level //gesp:wallclock on (or above) a call line waives that one
// edge and needs an inline or adjacent-comment reason. Bare waivers of
// either form are themselves diagnostics.
package detclockip

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"gesp/internal/analysis"
	"gesp/internal/analysis/callgraph"
	"gesp/internal/analysis/summary"
)

// Analyzer is the detclock-ip check.
var Analyzer = &analysis.ProgramAnalyzer{
	Name: "detclock-ip",
	Doc: "forbid deterministic packages (mpisim, dist, faultsim, kernels) from " +
		"transitively reaching wall clocks, unseeded rand, or //gesp:wallclock functions " +
		"except through justified waivers",
	Run: run,
}

// scopedPackages mirrors (and extends) detclock's scope: the final
// import-path segments of the deterministic engines.
var scopedPackages = map[string]bool{
	"mpisim": true, "dist": true, "faultsim": true, "kernels": true,
}

// wallFuncs and seededCtors follow detclock's vocabulary.
var wallFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "Sleep": true,
}

var seededCtors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func scoped(pkgPath string) bool {
	segs := strings.Split(pkgPath, "/")
	return scopedPackages[segs[len(segs)-1]]
}

type waiverUse struct {
	at        token.Pos
	justified bool
}

type checker struct {
	pass    *analysis.ProgramPass
	g       *callgraph.Graph
	dirs    map[*ast.File]*analysis.Directives
	waivers map[token.Pos]waiverUse
}

func run(pass *analysis.ProgramPass) error {
	c := &checker{
		pass:    pass,
		g:       callgraph.Of(pass.Prog),
		dirs:    make(map[*ast.File]*analysis.Directives),
		waivers: make(map[token.Pos]waiverUse),
	}
	facts := summary.TaintSpec{
		Graph:     c.g,
		Clean:     sanctioned,
		SkipEdge:  c.edgeWaived,
		EdgeTaint: edgeTaint,
	}.Solve()

	for _, n := range c.g.Nodes {
		c.checkBareAnnotation(n)
		if !scoped(n.Pkg.Path) || sanctioned(n) {
			continue
		}
		c.checkFrontier(n, facts)
	}
	for _, w := range c.waivers { //gesp:unordered
		if !w.justified {
			c.pass.Reportf(w.at, "//gesp:wallclock waiver without justification; "+
				"say why host time is acceptable here, inline or on the line above")
		}
	}
	return nil
}

// checkFrontier reports the edges through which wall-clock taint enters
// the scoped function: calls to sanctioned functions and blame paths
// through non-scoped module code. Direct external wall calls and deeper
// scoped culprits are reported elsewhere (detclock, or their own
// frontier), so one root cause yields one diagnostic.
func (c *checker) checkFrontier(n *callgraph.Node, facts map[*callgraph.Node]summary.Taint) {
	reported := make(map[token.Pos]bool)
	for _, e := range n.Out {
		if reported[e.Pos] || c.edgeWaived(e) {
			continue
		}
		var msg string
		switch what, bad := edgeTaint(e); {
		case bad && e.Callee.External():
			continue // detclock reports the direct site
		case bad:
			msg = summary.RenderBlame(c.pass.Prog.Fset, n, []*callgraph.Edge{e},
				summary.Taint{Bad: true, Via: e, What: what})
		case facts[e.Callee].Bad && !(scoped(e.Callee.Pkg.Path) && !sanctioned(e.Callee)):
			path, sink := summary.Blame(facts, e.Callee)
			msg = summary.RenderBlame(c.pass.Prog.Fset, n,
				append([]*callgraph.Edge{e}, path...), sink)
		default:
			continue
		}
		reported[e.Pos] = true
		c.pass.Reportf(e.Pos, "nondeterminism reaches deterministic function %s: %s; "+
			"use the rank's virtual clock or a seeded generator, or waive the call with "+
			"//gesp:wallclock + reason", n.Name(), msg)
	}
}

// checkBareAnnotation flags //gesp:wallclock function annotations with
// no doc-comment prose: a sanction must say what it sanctions.
func (c *checker) checkBareAnnotation(n *callgraph.Node) {
	if n.Decl == nil || !analysis.HasFuncDirective(n.Decl, "wallclock") {
		return
	}
	if !analysis.FuncDirectiveJustified(n.Decl, "wallclock") {
		c.pass.Reportf(n.Decl.Pos(), "//gesp:wallclock on %s without justification; "+
			"document why this function intentionally reads host time", n.Name())
	}
}

// sanctioned reports whether the node's body is covered by a
// function-level //gesp:wallclock (literals inherit from the enclosing
// declaration).
func sanctioned(n *callgraph.Node) bool {
	d := n.HotDecl()
	return d != nil && analysis.HasFuncDirective(d, "wallclock")
}

// edgeTaint marks calls that introduce nondeterminism by declaration:
// external wall-clock and globally-seeded rand functions, and
// sanctioned (//gesp:wallclock) module functions.
func edgeTaint(e *callgraph.Edge) (string, bool) {
	if e.Callee.External() {
		fn := e.Callee.Func
		if fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
			return "", false // methods (e.g. on a seeded *rand.Rand) are fine
		}
		switch fn.Pkg().Path() {
		case "time":
			if wallFuncs[fn.Name()] {
				return "calls time." + fn.Name() + " (host wall clock)", true
			}
		case "math/rand", "math/rand/v2":
			if !seededCtors[fn.Name()] {
				return "calls rand." + fn.Name() + " (globally-seeded, nondeterministic)", true
			}
		}
		return "", false
	}
	if sanctioned(e.Callee) && e.Kind == callgraph.Static {
		// Static only: the deliberate "call the backstop" pattern is a
		// direct call by name. A dynamic or interface edge landing on a
		// sanctioned closure is CHA pool overapproximation (any
		// address-taken function with a matching signature joins the
		// dispatch pool), not a real wall-clock dependency.
		return "calls //gesp:wallclock function " + e.Callee.Name(), true
	}
	return "", false
}

func (c *checker) edgeWaived(e *callgraph.Edge) bool {
	f := e.Caller.File
	if f == nil {
		return false
	}
	d, ok := c.dirs[f]
	if !ok {
		d = analysis.FileDirectives(c.pass.Prog.Fset, f)
		c.dirs[f] = d
	}
	dir, ok := d.Find(e.Pos, "wallclock")
	if !ok {
		return false
	}
	if _, seen := c.waivers[dir.Pos]; !seen {
		c.waivers[dir.Pos] = waiverUse{at: e.Pos, justified: d.Justified(dir)}
	}
	return true
}
