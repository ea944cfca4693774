// Package detclock forbids wall-clock reads and nondeterministic
// randomness in the packages whose results are measured in the
// simulator's virtual clock (internal/mpisim, internal/dist,
// internal/faultsim, and the compute kernels in internal/kernels).
// GESP's scaling tables are reported in simulated seconds, which must be
// deterministic and machine-independent: a time.Now or a
// globally-seeded math/rand call anywhere in those engines, or in any
// helper they call, silently turns a reproducible measurement into a
// flaky one.
//
// The analyzer propagates the taint bottom-up over the whole-program
// call graph and reports the frontier where it enters deterministic
// code:
//
//   - a direct call from a scoped function to a wall-clock function
//     (time.Now, host timers, Sleep) or to the globally-seeded
//     math/rand generator;
//   - a call from a scoped function to a //gesp:wallclock-annotated
//     function (the sanctioned backstop mechanism) — the caller must
//     either be annotated itself or waive the call site;
//   - a call from a scoped function into non-scoped module code whose
//     transitive closure reads the clock, with the full blame path.
//
// Explicitly seeded generators (rand.New(rand.NewSource(k))) are
// allowed; only the package-level, randomly-seeded source is flagged.
//
// Waivers: a function-level //gesp:wallclock directive sanctions the
// function's own body and is legitimized by doc-comment prose; a
// site-level //gesp:wallclock on (or above) a call line waives that one
// edge and needs an inline or adjacent-comment reason. Bare waivers of
// either form are themselves diagnostics.
package detclock

import (
	"go/token"
	"go/types"
	"path"

	"gesp/internal/analysis"
	"gesp/internal/analysis/callgraph"
	"gesp/internal/analysis/summary"
)

// Analyzer is the detclock check.
var Analyzer = &analysis.ProgramAnalyzer{
	Name: "detclock",
	Doc: "forbid deterministic packages (mpisim, dist, faultsim, kernels) from " +
		"reaching wall clocks, unseeded rand, or //gesp:wallclock functions, directly " +
		"or through any call chain, except through justified waivers",
	Run: run,
}

// scopedPackages are the import-path segments naming the deterministic
// engines. Matching on the final segment keeps the analyzer applicable
// to both the real packages (gesp/internal/mpisim) and test fixtures.
var scopedPackages = map[string]bool{
	"mpisim": true, "dist": true, "faultsim": true, "kernels": true,
}

// wallFuncs are the time-package functions that read or schedule
// against the host clock. Timer constructors (After, AfterFunc, Tick,
// NewTimer, NewTicker) and Sleep are included: a watchdog or
// checkpoint interval built on host timers would make failure
// detection depend on machine speed, where the simulator's wedge
// detection must fire at a deterministic virtual time. Wall-clock
// backstops that only guard against simulator bugs opt out with
// //gesp:wallclock.
var wallFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "Sleep": true,
}

// seededCtors are the math/rand package-level functions that do not
// touch the global generator and are therefore deterministic when given
// a fixed seed.
var seededCtors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func scoped(pkgPath string) bool { return scopedPackages[path.Base(pkgPath)] }

type checker struct {
	pass    *analysis.ProgramPass
	waivers *analysis.Waivers
}

func run(pass *analysis.ProgramPass) error {
	c := &checker{pass: pass, waivers: analysis.NewWaivers(pass.Prog.Fset, "wallclock")}
	g := callgraph.Of(pass.Prog)
	facts := summary.TaintSpec{
		Graph:     g,
		Clean:     sanctioned,
		SkipEdge:  c.edgeWaived,
		EdgeTaint: edgeTaint,
	}.Solve()

	for _, n := range g.Nodes {
		c.checkBareAnnotation(n)
		if !scoped(n.Pkg.Path) || sanctioned(n) {
			continue
		}
		c.checkFrontier(n, facts)
	}
	for _, at := range c.waivers.Bare() {
		c.pass.Reportf(at, "//gesp:wallclock waiver without justification; "+
			"say why host time is acceptable here, inline or on the line above")
	}
	return nil
}

// checkFrontier reports the edges through which wall-clock taint enters
// the scoped function: its own calls of wall-clock and globally-seeded
// rand functions, calls to sanctioned functions, and blame paths through
// non-scoped module code. Deeper scoped culprits are reported at their
// own frontier, so one root cause yields one diagnostic.
func (c *checker) checkFrontier(n *callgraph.Node, facts map[*callgraph.Node]summary.Taint) {
	reaches := func(blame string) string {
		return "nondeterminism reaches deterministic function " + n.Name() + ": " + blame +
			"; use the rank's virtual clock or a seeded generator, or waive the call with " +
			"//gesp:wallclock + reason"
	}
	reported := make(map[token.Pos]bool)
	for _, e := range n.Out {
		if reported[e.Pos] || c.edgeWaived(e) {
			continue
		}
		var msg string
		switch what, bad := edgeTaint(e); {
		case bad && e.Callee.External():
			msg = directMessage(e.Callee.Func)
		case bad:
			msg = reaches(summary.RenderBlame(c.pass.Prog.Fset, n, []*callgraph.Edge{e},
				summary.Taint{Bad: true, Via: e, What: what}))
		case facts[e.Callee].Bad && !(scoped(e.Callee.Pkg.Path) && !sanctioned(e.Callee)):
			path, sink := summary.Blame(facts, e.Callee)
			msg = reaches(summary.RenderBlame(c.pass.Prog.Fset, n,
				append([]*callgraph.Edge{e}, path...), sink))
		default:
			continue
		}
		reported[e.Pos] = true
		c.pass.Reportf(e.Pos, "%s", msg)
	}
}

// directMessage is the finding for a scoped function's own call of a
// wall-clock or globally-seeded rand function.
func directMessage(fn *types.Func) string {
	if fn.Pkg().Path() == "time" {
		return "time." + fn.Name() + " depends on the host wall clock inside a deterministic " +
			"simulation package; use the rank's virtual clock, or annotate the function " +
			"//gesp:wallclock if this is an intentional real-time measurement or backstop"
	}
	return "rand." + fn.Name() + " uses the globally-seeded generator, which is nondeterministic; " +
		"use rand.New(rand.NewSource(seed)) so simulated results are reproducible"
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
	return c.waivers.At(e.Caller.File, e.Pos)
}
