// Package hotalloc enforces the //gesp:hotpath contract: functions so
// annotated are the supernodal inner kernels (RankBUpdateInto, the
// dense panel solves, the triangular-solve loops) that run millions of
// times per factorization and must not touch the allocator. The
// contract holds for the *transitive call closure* of an annotated
// kernel, not just its own body: the analyzer walks the whole-program
// call graph and flags every site in the root or any reachable callee
// that may allocate — append/make/new, slice/map composite literals,
// taking the address of a composite literal, closures, goroutine
// launches, interface boxing, allocating conversions, string
// concatenation, variadic packing — with a per-edge blame path from the
// annotated root down to the offending statement.
//
// The contract is intentionally conservative — an append into
// preallocated capacity is still flagged, because capacity is a dynamic
// property the kernel cannot promise statically. Scratch-buffer growth
// belongs in an un-annotated ensure/setup function called outside the
// inner loop (see dist.UpdateScratch).
//
// Calls that leave the program (stdlib) are assumed to allocate unless
// the callee's package is on the allocation-free allowlist (math,
// math/bits, sync, sync/atomic, the sort.Search* family and
// slices.BinarySearch): the
// analyzer cannot see those bodies, and a hot kernel has no business
// calling anything heavier. A call the author knows to be safe (or
// intentionally cold, e.g. a panic-path formatter) is waived with
// //gesp:allocok on the call line plus a reason; a bare waiver is
// itself a diagnostic.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"gesp/internal/analysis"
	"gesp/internal/analysis/callgraph"
	"gesp/internal/analysis/summary"
)

// Analyzer is the hotalloc check.
var Analyzer = &analysis.ProgramAnalyzer{
	Name: "hotalloc",
	Doc: "verify the transitive call closure of every //gesp:hotpath function is " +
		"allocation-free, with per-edge blame paths; waive call sites with //gesp:allocok + reason",
	Run: run,
}

// allowedPkgs are external packages whose functions are assumed
// allocation-free: pure arithmetic and lock/atomic primitives.
var allowedPkgs = map[string]bool{
	"math": true, "math/bits": true, "sync": true, "sync/atomic": true,
}

// allowedFuncs are individually-allowlisted externals.
var allowedFuncs = map[string]bool{
	"sort.Search": true, "sort.SearchInts": true,
	"sort.SearchFloat64s": true, "sort.SearchStrings": true,
	"slices.BinarySearch": true,
}

type site struct {
	pos token.Pos
	// what names the site in blame paths ("append", "string
	// concatenation").
	what string
	// root, when set, is the finding's text at a //gesp:hotpath root,
	// with %s for the root's declared name; otherwise the finding reads
	// "<what> inside //gesp:hotpath function <node name>".
	root string
}

type checker struct {
	pass    *analysis.ProgramPass
	sites   map[*callgraph.Node][]site
	waivers *analysis.Waivers
}

func run(pass *analysis.ProgramPass) error {
	c := &checker{
		pass:    pass,
		sites:   make(map[*callgraph.Node][]site),
		waivers: analysis.NewWaivers(pass.Prog.Fset, "allocok"),
	}
	g := callgraph.Of(pass.Prog)
	facts := summary.TaintSpec{
		Graph: g,
		Local: func(n *callgraph.Node) (token.Pos, string, bool) {
			for _, s := range c.scan(n) {
				return s.pos, s.what, true
			}
			return token.NoPos, "", false
		},
		SkipEdge:  c.edgeWaived,
		EdgeTaint: edgeTaint,
	}.Solve()

	for _, n := range g.Nodes {
		if decl := n.HotDecl(); decl == nil || !analysis.HasFuncDirective(decl, "hotpath") {
			continue
		}
		c.checkRoot(n, facts)
	}
	for _, at := range c.waivers.Bare() {
		c.pass.Reportf(at, "//gesp:allocok without justification; "+
			"say why the allocation is acceptable, inline or on the line above")
	}
	return nil
}

// checkRoot reports the root's own allocation sites and one blame path
// per call edge that reaches an allocation.
func (c *checker) checkRoot(n *callgraph.Node, facts map[*callgraph.Node]summary.Taint) {
	for _, s := range c.scan(n) {
		if s.root != "" {
			c.pass.Reportf(s.pos, s.root, n.HotDecl().Name.Name)
		} else {
			c.pass.Reportf(s.pos, "%s inside //gesp:hotpath function %s", s.what, n.Name())
		}
	}
	// Group edges by call site so a dynamic call with many possible
	// allocating targets yields one diagnostic, not a flood.
	reported := make(map[token.Pos]bool)
	for i, e := range n.Out {
		if reported[e.Pos] || c.edgeWaived(e) {
			continue
		}
		var msg string
		if what, bad := edgeTaint(e); bad {
			msg = summary.RenderBlame(c.pass.Prog.Fset, n, []*callgraph.Edge{e},
				summary.Taint{Bad: true, Via: e, What: what})
		} else if f := facts[e.Callee]; f.Bad {
			path, sink := summary.Blame(facts, e.Callee)
			msg = summary.RenderBlame(c.pass.Prog.Fset, n,
				append([]*callgraph.Edge{e}, path...), sink)
		} else {
			continue
		}
		reported[e.Pos] = true
		if extra := c.extraTargets(n.Out[i+1:], e.Pos, facts); extra > 0 {
			msg = fmt.Sprintf("%s (+%d other possible dynamic targets)", msg, extra)
		}
		c.pass.Reportf(e.Pos, "allocation reachable from //gesp:hotpath function %s: %s", n.Name(), msg)
	}
}

// extraTargets counts further allocating callees dispatched from the
// same call site.
func (c *checker) extraTargets(rest []*callgraph.Edge, pos token.Pos, facts map[*callgraph.Node]summary.Taint) int {
	extra := 0
	for _, e := range rest {
		if e.Pos != pos || c.edgeWaived(e) {
			continue
		}
		if _, bad := edgeTaint(e); bad || facts[e.Callee].Bad {
			extra++
		}
	}
	return extra
}

// edgeTaint implements the external-callee policy: a call that leaves
// the program is assumed to allocate unless allowlisted.
func edgeTaint(e *callgraph.Edge) (string, bool) {
	if !e.Callee.External() {
		return "", false
	}
	fn := e.Callee.Func
	if fn.Pkg() == nil || allowedPkgs[fn.Pkg().Path()] || allowedFuncs[fn.FullName()] {
		return "", false
	}
	return fmt.Sprintf("calls %s (outside the program; assumed to allocate)", fn.FullName()), true
}

func (c *checker) edgeWaived(e *callgraph.Edge) bool {
	return c.waivers.At(e.Caller.File, e.Pos)
}

// scan collects the node's own allocation sites (memoized).
func (c *checker) scan(n *callgraph.Node) []site {
	if s, ok := c.sites[n]; ok {
		return s
	}
	var out []site
	info := n.Pkg.Info
	add := func(pos token.Pos, what, root string) {
		if c.waivers.At(n.File, pos) {
			return
		}
		out = append(out, site{pos: pos, what: what, root: root})
	}
	// Prepass: mark call-function expressions, so a method referenced
	// as a value (which allocates a bound-method closure) is told apart
	// from an ordinary method call.
	callFuns := make(map[ast.Node]bool)
	n.Walk(func(nd ast.Node) bool {
		if call, ok := nd.(*ast.CallExpr); ok {
			callFuns[stripParens(call.Fun)] = true
		}
		return true
	})
	n.Walk(func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.CallExpr:
			c.scanCall(info, x, add)
		case *ast.CompositeLit:
			if t := info.TypeOf(x); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					add(x.Pos(), fmt.Sprintf("composite literal of type %s", t), fmt.Sprintf(
						"composite literal of type %s allocates inside //gesp:hotpath function %%s", t))
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := x.X.(*ast.CompositeLit); ok {
					add(x.Pos(), "&composite literal (heap escape)",
						"&composite literal escapes to the heap inside //gesp:hotpath function %s")
				}
			}
		case *ast.FuncLit:
			add(x.Pos(), "function literal (closure capture)",
				"function literal allocates a closure inside //gesp:hotpath function %s")
		case *ast.GoStmt:
			add(x.Pos(), "goroutine launch", "goroutine launch inside //gesp:hotpath function %s")
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isString(info.TypeOf(x)) {
				add(x.Pos(), "string concatenation", "")
			}
		case *ast.SelectorExpr:
			if callFuns[x] {
				return true
			}
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.MethodVal {
				add(x.Pos(), fmt.Sprintf("method value %s (allocates a bound closure)", x.Sel.Name), "")
			}
		case *ast.AssignStmt:
			c.scanAssign(info, x, add)
		case *ast.ValueSpec:
			c.scanValueSpec(info, x, add)
		case *ast.ReturnStmt:
			c.scanReturn(info, n, x, add)
		}
		return true
	})
	c.sites[n] = out
	return out
}

// scanCall flags allocating builtins, allocating conversions, variadic
// packing, and arguments boxed into interface parameters.
func (c *checker) scanCall(info *types.Info, call *ast.CallExpr, add func(pos token.Pos, what, root string)) {
	fun := stripParens(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append", "make", "new":
				add(call.Pos(), b.Name(), b.Name()+" allocates inside //gesp:hotpath function %s; "+
					"hoist the buffer into a scratch struct sized outside the kernel")
			}
			return // other builtins (incl. panic's crash path): no boxing check
		}
	}
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		c.scanConversion(info, call, tv.Type, add)
		return
	}
	sig, ok := info.TypeOf(fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // a pre-built slice is passed through
			}
			if i == params.Len()-1 {
				add(arg.Pos(), "variadic call (allocates the argument slice)", "")
			}
			if s, ok := params.At(params.Len() - 1).Type().Underlying().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isTP := pt.(*types.TypeParam); isTP {
			continue // generic instantiation, not boxing
		}
		if types.IsInterface(pt) && boxAllocates(info.TypeOf(arg)) {
			add(arg.Pos(), fmt.Sprintf("%s boxed into interface parameter", info.TypeOf(arg)), "")
		}
	}
}

// scanConversion flags conversions that copy or box.
func (c *checker) scanConversion(info *types.Info, call *ast.CallExpr, dst types.Type, add func(pos token.Pos, what, root string)) {
	if len(call.Args) != 1 {
		return
	}
	src := info.TypeOf(call.Args[0])
	switch d := dst.Underlying().(type) {
	case *types.Interface:
		if boxAllocates(src) {
			add(call.Pos(), fmt.Sprintf("conversion of %s to %s (interface boxing)", src, dst), "")
		}
	case *types.Slice:
		if isString(src) {
			add(call.Pos(), "string-to-slice conversion (copies)", "")
		}
	case *types.Basic:
		if d.Info()&types.IsString != 0 && src != nil {
			if _, ok := src.Underlying().(*types.Slice); ok {
				add(call.Pos(), "slice-to-string conversion (copies)", "")
			}
		}
	}
}

func (c *checker) scanAssign(info *types.Info, x *ast.AssignStmt, add func(pos token.Pos, what, root string)) {
	if len(x.Lhs) != len(x.Rhs) {
		return
	}
	for i := range x.Lhs {
		lt := info.TypeOf(x.Lhs[i])
		if lt == nil {
			continue
		}
		if _, isTP := lt.(*types.TypeParam); isTP {
			continue
		}
		if types.IsInterface(lt) && boxAllocates(info.TypeOf(x.Rhs[i])) {
			add(x.Rhs[i].Pos(), fmt.Sprintf("%s boxed into interface assignment", info.TypeOf(x.Rhs[i])), "")
		}
	}
}

func (c *checker) scanValueSpec(info *types.Info, x *ast.ValueSpec, add func(pos token.Pos, what, root string)) {
	for i, name := range x.Names {
		if i >= len(x.Values) {
			break
		}
		obj := info.Defs[name]
		if obj == nil || !types.IsInterface(obj.Type()) {
			continue
		}
		if boxAllocates(info.TypeOf(x.Values[i])) {
			add(x.Values[i].Pos(), fmt.Sprintf("%s boxed into interface variable", info.TypeOf(x.Values[i])), "")
		}
	}
}

func (c *checker) scanReturn(info *types.Info, n *callgraph.Node, x *ast.ReturnStmt, add func(pos token.Pos, what, root string)) {
	var sig *types.Signature
	switch {
	case n.Decl != nil:
		if fn, ok := info.Defs[n.Decl.Name].(*types.Func); ok {
			sig = fn.Type().(*types.Signature)
		}
	case n.Lit != nil:
		sig, _ = info.TypeOf(n.Lit).(*types.Signature)
	}
	if sig == nil || len(x.Results) != sig.Results().Len() {
		return
	}
	for i, res := range x.Results {
		rt := sig.Results().At(i).Type()
		if _, isTP := rt.(*types.TypeParam); isTP {
			continue
		}
		if types.IsInterface(rt) && boxAllocates(info.TypeOf(res)) {
			add(res.Pos(), fmt.Sprintf("%s boxed into interface result", info.TypeOf(res)), "")
		}
	}
}

// boxAllocates reports whether storing a value of type t in an
// interface allocates: everything except pointer-shaped values (whose
// representation fits the interface data word) and nil.
func boxAllocates(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return false
	case *types.Basic:
		switch u.Kind() {
		case types.UntypedNil, types.UnsafePointer:
			return false
		}
	}
	return true
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func stripParens(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return e
		}
	}
}
