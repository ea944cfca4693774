// Package callgraph builds a conservative whole-program call graph
// over every package a gesp-lint run loads: the substrate of the
// whole-program analyzers (hotalloc, detclock). Resolution is
// class-hierarchy style (CHA):
//
//   - direct calls of declared functions and methods are static edges;
//   - an interface method call gets an edge to every method of that
//     name, on any type anywhere in the program, whose receiver
//     implements the interface;
//   - a call through a function value (variable, parameter, struct
//     field, method value, returned closure) gets an edge to every
//     address-taken function or function literal in the program whose
//     signature is identical to the call's;
//   - calls into packages outside the program (stdlib) become edges to
//     body-less external nodes, so analyzers can apply per-package
//     policies to code they cannot see.
//
// The over-approximation is deliberate: a hot-path or determinism
// verdict must hold for every call the runtime could make, not just the
// ones a sharper pointer analysis would keep. Reflection
// (reflect.Value.Call, method lookup by name) is the one blind spot;
// the project does not use it on any analyzed path.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"gesp/internal/analysis"
)

// Kind classifies how a call site was resolved to its callee.
type Kind int

const (
	// Static is a direct call of a declared function, method, or
	// immediately-invoked function literal.
	Static Kind = iota
	// Interface is an interface method dispatch, CHA-resolved to a
	// concrete method.
	Interface
	// Dynamic is a call through a function value, resolved to an
	// address-taken function of identical signature.
	Dynamic
)

func (k Kind) String() string {
	switch k {
	case Static:
		return "static"
	case Interface:
		return "interface"
	case Dynamic:
		return "dynamic"
	}
	return "?"
}

// Node is one function in the graph: a declared function or method, a
// function literal, a file's package-level initializer expressions, or
// an external (body-less) function from outside the program.
type Node struct {
	ID int
	// Func is the types object: set for declared functions, methods,
	// and externals; nil for literals and initializer nodes.
	Func *types.Func
	// Decl is the declaration, for declared module functions.
	Decl *ast.FuncDecl
	// Lit is the literal, for function-literal nodes.
	Lit *ast.FuncLit
	// Pkg and File locate module nodes; both are nil for externals.
	Pkg  *analysis.Package
	File *ast.File
	// Parent is the lexically enclosing node of a function literal.
	Parent *Node

	// Out and In are the call edges, in deterministic build order.
	Out []*Edge
	In  []*Edge

	name  string
	inits []ast.Expr // initializer nodes: package-level var values
}

// External reports whether the node's body is outside the program.
func (n *Node) External() bool { return n.Pkg == nil }

// Name is a short human-readable identifier: "kernels.SpAxpy",
// "serve.(*cache).evict", "dist.SolveColumn$1" for the first literal
// inside SolveColumn, "time.Now" for externals.
func (n *Node) Name() string { return n.name }

// Pos is the node's declaration position (NoPos for externals).
func (n *Node) Pos() token.Pos {
	switch {
	case n.Decl != nil:
		return n.Decl.Pos()
	case n.Lit != nil:
		return n.Lit.Pos()
	case len(n.inits) > 0:
		return n.inits[0].Pos()
	}
	return token.NoPos
}

// HotDecl returns the function declaration whose doc directives govern
// this node: the declaration itself, or — for literals and their
// nests — the declaration lexically enclosing them.
func (n *Node) HotDecl() *ast.FuncDecl {
	for p := n; p != nil; p = p.Parent {
		if p.Decl != nil {
			return p.Decl
		}
	}
	return nil
}

// Walk visits the node's executable code. Nested function literals are
// reported to fn (they are values created here) but not descended into:
// each literal is its own node.
func (n *Node) Walk(fn func(ast.Node) bool) {
	var roots []ast.Node
	switch {
	case n.Decl != nil:
		if n.Decl.Body == nil {
			return
		}
		roots = []ast.Node{n.Decl.Body}
	case n.Lit != nil:
		roots = []ast.Node{n.Lit.Body}
	default:
		for _, e := range n.inits {
			roots = append(roots, e)
		}
	}
	for _, root := range roots {
		ast.Inspect(root, func(nd ast.Node) bool {
			if lit, ok := nd.(*ast.FuncLit); ok {
				fn(lit)
				return false // the literal's body is its own node
			}
			return nd == nil || fn(nd)
		})
	}
}

// Edge is one resolved call: caller invokes callee at Pos.
type Edge struct {
	Caller *Node
	Callee *Node
	Pos    token.Pos
	Kind   Kind
}

// Graph is the whole-program call graph.
type Graph struct {
	Prog *analysis.Program
	// Nodes lists every module node (declared, literal, initializer) in
	// deterministic order; externals are reachable through edges only.
	Nodes []*Node

	byFunc map[*types.Func]*Node
	byLit  map[*ast.FuncLit]*Node
	byName map[string][]*Node
	ext    map[*types.Func]*Node
}

// Lookup returns the unique node with the given Name, or nil.
func (g *Graph) Lookup(name string) *Node {
	ns := g.byName[name]
	if len(ns) == 1 {
		return ns[0]
	}
	return nil
}

type cacheKey struct{}

// Of returns the program's call graph, building it on first use and
// sharing it between analyzers through the program's artifact cache.
func Of(prog *analysis.Program) *Graph {
	v, err := prog.Cached(cacheKey{}, func() (any, error) { return Build(prog), nil })
	if err != nil {
		panic(err) // unreachable: the build closure never errors
	}
	return v.(*Graph)
}

// Build constructs the call graph of the program.
func Build(prog *analysis.Program) *Graph {
	b := &builder{
		g: &Graph{
			Prog:   prog,
			byFunc: make(map[*types.Func]*Node),
			byLit:  make(map[*ast.FuncLit]*Node),
			byName: make(map[string][]*Node),
			ext:    make(map[*types.Func]*Node),
		},
		methods: make(map[string][]*Node),
	}
	b.declare()
	for _, n := range b.g.Nodes {
		b.process(n)
	}
	// Processing creates literal nodes; the range above never sees them
	// (its length was fixed at entry), so they queue separately — and
	// literals found inside literals re-enter the same queue.
	for len(b.litQueue) > 0 {
		n := b.litQueue[0]
		b.litQueue = b.litQueue[1:]
		b.process(n)
	}
	b.resolveAll()
	return b.g
}

type poolEntry struct {
	node *Node
	sig  *types.Signature
}

type pending struct {
	caller *Node
	call   *ast.CallExpr
}

type builder struct {
	g        *Graph
	methods  map[string][]*Node // declared methods by name, for CHA
	pool     []poolEntry        // address-taken functions and literals
	pooled   map[*Node]bool
	pendings []pending
	litQueue []*Node
}

// declare creates the declared-function and initializer nodes of every
// package, and indexes methods for CHA resolution.
func (b *builder) declare() {
	b.pooled = make(map[*Node]bool)
	for _, pkg := range b.g.Prog.Pkgs {
		for _, f := range pkg.Files {
			var inits []ast.Expr
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
					if fn == nil {
						continue
					}
					n := b.add(&Node{
						Func: fn, Decl: d, Pkg: pkg, File: f,
						name: declName(pkg, fn),
					})
					b.g.byFunc[fn] = n
					if d.Recv != nil {
						b.methods[d.Name.Name] = append(b.methods[d.Name.Name], n)
					}
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					for _, spec := range d.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						inits = append(inits, vs.Values...)
					}
				}
			}
			if len(inits) > 0 {
				b.add(&Node{
					Pkg: pkg, File: f, inits: inits,
					name: shortPkg(pkg.Path) + ".init:" + baseName(pkg.Fset.Position(f.Pos()).Filename),
				})
			}
		}
	}
}

func (b *builder) add(n *Node) *Node {
	n.ID = len(b.g.Nodes)
	b.g.Nodes = append(b.g.Nodes, n)
	b.g.byName[n.name] = append(b.g.byName[n.name], n)
	return n
}

// process records the node's call sites and address-taken function
// references, creating nodes for the literals it contains.
func (b *builder) process(n *Node) {
	// Prepass: mark expressions in call-function position and the Sel
	// identifiers of selector expressions, so the reference pass can
	// recognize a function mentioned *as a value*.
	callFuns := make(map[ast.Node]bool)
	selSels := make(map[*ast.Ident]bool)
	n.Walk(func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.CallExpr:
			callFuns[stripFun(x.Fun)] = true
			b.pendings = append(b.pendings, pending{n, x})
		case *ast.SelectorExpr:
			selSels[x.Sel] = true
		}
		return true
	})
	info := n.Pkg.Info
	litSeq := 0
	n.Walk(func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.FuncLit:
			litSeq++
			ln := b.add(&Node{
				Lit: x, Pkg: n.Pkg, File: n.File, Parent: n,
				name: fmt.Sprintf("%s$%d", n.name, litSeq),
			})
			b.g.byLit[x] = ln
			b.litQueue = append(b.litQueue, ln)
			if !callFuns[x] {
				b.addPool(ln, info.TypeOf(x))
			}
		case *ast.SelectorExpr:
			if callFuns[x] {
				return true
			}
			if sel, ok := info.Selections[x]; ok {
				if sel.Kind() == types.MethodVal || sel.Kind() == types.MethodExpr {
					b.addPool(b.nodeFor(sel.Obj().(*types.Func)), info.TypeOf(x))
				}
				return true
			}
			if fn, ok := info.Uses[x.Sel].(*types.Func); ok {
				b.addPool(b.nodeFor(fn), info.TypeOf(x))
			}
		case *ast.Ident:
			if callFuns[x] || selSels[x] {
				return true
			}
			if fn, ok := info.Uses[x].(*types.Func); ok {
				b.addPool(b.nodeFor(fn), info.TypeOf(x))
			}
		}
		return true
	})
}

func (b *builder) addPool(n *Node, t types.Type) {
	if n == nil || b.pooled[n] {
		return
	}
	sig, ok := t.(*types.Signature)
	if !ok {
		return
	}
	b.pooled[n] = true
	b.pool = append(b.pool, poolEntry{node: n, sig: sig})
}

// nodeFor returns the module node of fn, or a memoized external node.
func (b *builder) nodeFor(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	if n, ok := b.g.byFunc[fn]; ok {
		return n
	}
	if n, ok := b.g.ext[fn]; ok {
		return n
	}
	n := &Node{Func: fn, name: fn.FullName()}
	b.g.ext[fn] = n
	return n
}

// resolveAll turns the recorded call sites into edges. It runs after
// every node has been processed, so the address-taken pool and the
// method index are complete.
func (b *builder) resolveAll() {
	for _, p := range b.pendings {
		b.resolve(p)
	}
}

func (b *builder) resolve(p pending) {
	info := p.caller.Pkg.Info
	fun := stripFun(p.call.Fun)
	switch x := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[x].(type) {
		case *types.Builtin, *types.TypeName, *types.Nil:
			return // builtins are local facts; T(x) is a conversion
		case *types.Func:
			b.addEdge(p, b.nodeFor(obj), Static)
			return
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				m := sel.Obj().(*types.Func)
				if types.IsInterface(sel.Recv()) {
					b.chaEdges(p, sel.Recv().Underlying().(*types.Interface), m)
				} else {
					b.addEdge(p, b.nodeFor(m), Static)
				}
				return
			case types.MethodExpr:
				b.addEdge(p, b.nodeFor(sel.Obj().(*types.Func)), Static)
				return
			}
			// FieldVal of function type: dynamic, below.
		} else {
			switch obj := info.Uses[x.Sel].(type) {
			case *types.Builtin, *types.TypeName:
				return // unsafe.X, pkg.Type(x)
			case *types.Func:
				b.addEdge(p, b.nodeFor(obj), Static)
				return
			}
		}
	case *ast.FuncLit:
		b.addEdge(p, b.g.byLit[x], Static)
		return
	case *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.FuncType,
		*ast.StructType, *ast.InterfaceType, *ast.StarExpr:
		return // conversion to a composite type
	}
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return // conversion through a parenthesized or aliased type
	}
	// A call through a function value: dispatch to every address-taken
	// function of identical signature.
	sig, ok := info.TypeOf(fun).(*types.Signature)
	if !ok {
		return
	}
	for _, ent := range b.pool {
		if types.Identical(ent.sig, sig) {
			b.addEdge(p, ent.node, Dynamic)
		}
	}
}

// chaEdges adds one edge per concrete method in the program that the
// interface call could dispatch to.
func (b *builder) chaEdges(p pending, iface *types.Interface, m *types.Func) {
	for _, cand := range b.methods[m.Name()] {
		recv := cand.Func.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		t := recv.Type()
		if types.Implements(t, iface) ||
			(!isPointer(t) && types.Implements(types.NewPointer(t), iface)) {
			b.addEdge(p, cand, Interface)
		}
	}
}

func (b *builder) addEdge(p pending, callee *Node, kind Kind) {
	if callee == nil {
		return
	}
	e := &Edge{Caller: p.caller, Callee: callee, Pos: p.call.Pos(), Kind: kind}
	p.caller.Out = append(p.caller.Out, e)
	callee.In = append(callee.In, e)
}

// stripFun unwraps parentheses and generic instantiation from a call's
// function expression.
func stripFun(e ast.Expr) ast.Expr {
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

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

func shortPkg(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

func baseName(filename string) string {
	if i := strings.LastIndexByte(filename, '/'); i >= 0 {
		return filename[i+1:]
	}
	return filename
}

// declName renders "pkg.Func" or "pkg.(*Recv).Method".
func declName(pkg *analysis.Package, fn *types.Func) string {
	short := shortPkg(pkg.Path)
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		rt := recv.Type()
		qual := func(p *types.Package) string { return "" }
		return fmt.Sprintf("%s.(%s).%s", short, types.TypeString(rt, qual), fn.Name())
	}
	return short + "." + fn.Name()
}
