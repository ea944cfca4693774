// Package guardedby checks declared lock disciplines. A struct field
// annotated //gesp:guardedby:<mu> (doc comment above or line comment
// beside the field) may only be accessed while <mu> — a sibling
// sync.Mutex or sync.RWMutex field — is held. The analyzer walks each
// function with a branch-sensitive lock-held set: X.Lock()/X.RLock()
// acquire, X.Unlock()/X.RUnlock() release, a deferred unlock holds to
// function end, and an early-return branch that unlocks does not poison
// the fall-through path. Helpers that run under a caller's lock declare
// it with //gesp:holds:<recv>.<mu>, which is assumed on entry and
// checked at every static call site.
//
// The analyzer also flags mixed atomic/plain access: a field updated
// through sync/atomic (atomic.AddInt64(&x.f, ...)) must not also be
// read or written plainly — that hides a data race from both the
// mutex and the atomic discipline.
//
// Intentional exceptions (single-goroutine setup, test-only accessors)
// are waived per site with //gesp:unsync plus a reason; a bare waiver
// is itself a diagnostic. Accesses through variables local to the
// current function are skipped: a struct that has not escaped its
// constructor cannot be shared.
package guardedby

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"gesp/internal/analysis"
)

// Analyzer is the guardedby check.
var Analyzer = &analysis.Analyzer{
	Name: "guardedby",
	Doc: "check //gesp:guardedby:<mu> field disciplines against a lock-held walk, " +
		"//gesp:holds:<mu> helper contracts, and mixed atomic/plain field access",
	Run: run,
}

type checker struct {
	pass    *analysis.Pass
	guarded map[*types.Var]string // field -> sibling mutex field name
	atomic  map[*types.Var]bool   // fields passed as &x.f to sync/atomic
	// atomicArgs are the &x.f selector sites themselves, excluded from
	// plain-access reporting.
	atomicArgs map[*ast.SelectorExpr]bool
	decls      map[*types.Func]*ast.FuncDecl
	waivers    *analysis.Waivers
	// lits queues function literals for analysis under an empty held
	// set, unless already analyzed as an immediately-invoked literal.
	lits []*ast.FuncLit
	done map[*ast.FuncLit]bool
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:       pass,
		guarded:    make(map[*types.Var]string),
		atomic:     make(map[*types.Var]bool),
		atomicArgs: make(map[*ast.SelectorExpr]bool),
		decls:      make(map[*types.Func]*ast.FuncDecl),
		waivers:    analysis.NewWaivers(pass.Fset, "unsync"),
		done:       make(map[*ast.FuncLit]bool),
	}
	for _, f := range pass.Files {
		c.collect(f)
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &walker{c: c, file: f, fn: fd}
			held := make(map[string]bool)
			for _, d := range analysis.FuncDirectives(fd) {
				if d.Name == "holds" && d.Arg != "" {
					held[d.Arg] = true
				}
			}
			w.stmts(fd.Body.List, held)
			for len(c.lits) > 0 {
				lit := c.lits[0]
				c.lits = c.lits[1:]
				if !c.done[lit] {
					c.done[lit] = true
					(&walker{c: c, file: f, fn: fd}).stmts(lit.Body.List, make(map[string]bool))
				}
			}
		}
	}
	for _, at := range c.waivers.Bare() {
		c.pass.Reportf(at, "//gesp:unsync without justification; "+
			"say why the unsynchronized access is safe, inline or on the line above")
	}
	return nil
}

// collect gathers guarded-field annotations, function declarations, and
// atomic field uses from one file.
func (c *checker) collect(f *ast.File) {
	dirs := c.waivers.Dirs(f)
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			if fn, ok := c.pass.TypesInfo.Defs[x.Name].(*types.Func); ok {
				c.decls[fn] = x
			}
		case *ast.StructType:
			c.collectStruct(dirs, x)
		case *ast.CallExpr:
			c.collectAtomic(x)
		}
		return true
	})
}

func (c *checker) collectStruct(dirs *analysis.Directives, st *ast.StructType) {
	for _, field := range st.Fields.List {
		dir, ok := dirs.Find(field.Pos(), "guardedby")
		if !ok {
			continue
		}
		if dir.Arg == "" {
			c.pass.Reportf(field.Pos(), "//gesp:guardedby needs a mutex field argument (//gesp:guardedby:mu)")
			continue
		}
		if !structHasMutex(st, dir.Arg) {
			c.pass.Reportf(field.Pos(),
				"//gesp:guardedby:%s names no sibling sync.Mutex or sync.RWMutex field", dir.Arg)
			continue
		}
		for _, name := range field.Names {
			if v, ok := c.pass.TypesInfo.Defs[name].(*types.Var); ok {
				c.guarded[v] = dir.Arg
			}
		}
	}
}

// collectAtomic records fields whose address feeds a sync/atomic call.
func (c *checker) collectAtomic(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return
	}
	for _, arg := range call.Args {
		u, ok := arg.(*ast.UnaryExpr)
		if !ok || u.Op != token.AND {
			continue
		}
		fsel, ok := u.X.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		if v := c.fieldOf(fsel); v != nil {
			c.atomic[v] = true
			c.atomicArgs[fsel] = true
		}
	}
}

// fieldOf returns the struct field a selector resolves to, or nil.
func (c *checker) fieldOf(sel *ast.SelectorExpr) *types.Var {
	s, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	if v, ok := s.Obj().(*types.Var); ok {
		return v
	}
	return nil
}

func structHasMutex(st *ast.StructType, name string) bool {
	for _, field := range st.Fields.List {
		for _, n := range field.Names {
			if n.Name == name {
				return isMutexExpr(field.Type)
			}
		}
	}
	return false
}

func isMutexExpr(e ast.Expr) bool {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "sync" && (sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex")
}

func isMutexType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		if p, ok := t.(*types.Pointer); ok {
			n, ok = p.Elem().(*types.Named)
			if !ok {
				return false
			}
		} else {
			return false
		}
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// walker carries the per-function lock-held state.
type walker struct {
	c    *checker
	file *ast.File
	fn   *ast.FuncDecl
}

type held = map[string]bool

func clone(h held) held {
	out := make(held, len(h))
	for k := range h { //gesp:unordered
		out[k] = true
	}
	return out
}

func intersect(a, b held) held {
	out := make(held)
	for k := range a { //gesp:unordered
		if b[k] {
			out[k] = true
		}
	}
	return out
}

// stmts walks a statement list sequentially, returning the lock set
// held after it.
func (w *walker) stmts(list []ast.Stmt, h held) held {
	for _, s := range list {
		h = w.stmt(s, h)
	}
	return h
}

func (w *walker) stmt(s ast.Stmt, h held) held {
	switch x := s.(type) {
	case nil:
		return h
	case *ast.BlockStmt:
		return w.stmts(x.List, h)
	case *ast.LabeledStmt:
		return w.stmt(x.Stmt, h)
	case *ast.IfStmt:
		h = w.stmt(x.Init, h)
		w.scan(x.Cond, h)
		thenH := w.stmts(x.Body.List, clone(h))
		thenTerm := terminates(x.Body.List)
		elseH, elseTerm := h, false
		if x.Else != nil {
			elseH = w.stmt(x.Else, clone(h))
			elseTerm = terminatesStmt(x.Else)
		}
		switch {
		case thenTerm && elseTerm:
			return h // fall-through is unreachable
		case thenTerm:
			return elseH
		case elseTerm:
			return thenH
		default:
			return intersect(thenH, elseH)
		}
	case *ast.ForStmt:
		h = w.stmt(x.Init, h)
		w.scan(x.Cond, h)
		body := w.stmts(x.Body.List, clone(h))
		body = w.stmt(x.Post, body)
		return intersect(h, body)
	case *ast.RangeStmt:
		w.scan(x.X, h)
		return intersect(h, w.stmts(x.Body.List, clone(h)))
	case *ast.SwitchStmt:
		h = w.stmt(x.Init, h)
		w.scan(x.Tag, h)
		return w.clauses(x.Body.List, h)
	case *ast.TypeSwitchStmt:
		h = w.stmt(x.Init, h)
		w.scanStmtExprs(x.Assign, h)
		return w.clauses(x.Body.List, h)
	case *ast.SelectStmt:
		return w.clauses(x.Body.List, h)
	case *ast.DeferStmt:
		// A deferred unlock keeps the lock held to function end; any
		// other deferred work runs outside the current lock regime.
		if w.lockEffect(x.Call) == nil {
			w.scan(x.Call, h)
		}
		return h
	case *ast.GoStmt:
		w.scan(x.Call, h)
		return h
	default:
		w.scanStmtExprs(s, h)
		return w.applyEffects(s, h)
	}
}

// clauses walks case/comm clause bodies and merges their exit states.
func (w *walker) clauses(list []ast.Stmt, h held) held {
	after := h
	for _, cl := range list {
		var body []ast.Stmt
		switch x := cl.(type) {
		case *ast.CaseClause:
			for _, e := range x.List {
				w.scan(e, h)
			}
			body = x.Body
		case *ast.CommClause:
			h = w.stmt(x.Comm, h)
			body = x.Body
		default:
			continue
		}
		r := w.stmts(body, clone(h))
		if !terminates(body) {
			after = intersect(after, r)
		}
	}
	return after
}

// scanStmtExprs checks the guarded accesses of a leaf statement.
func (w *walker) scanStmtExprs(s ast.Stmt, h held) {
	w.scan(s, h)
}

// scan inspects an expression (or leaf statement) for guarded-field and
// atomic-mixed accesses, queueing nested function literals.
func (w *walker) scan(n ast.Node, h held) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.FuncLit:
			w.c.lits = append(w.c.lits, x)
			return false
		case *ast.CallExpr:
			if lit, ok := x.Fun.(*ast.FuncLit); ok {
				// An immediately-invoked literal runs under the
				// caller's locks.
				w.c.done[lit] = true
				(&walker{c: w.c, file: w.file, fn: w.fn}).stmts(lit.Body.List, clone(h))
				for _, arg := range x.Args {
					w.scan(arg, h)
				}
				return false
			}
			w.checkHoldsCall(x, h)
		case *ast.SelectorExpr:
			w.checkAccess(x, h)
		}
		return true
	})
}

// checkAccess verifies one field selector against the guarded and
// atomic disciplines.
func (w *walker) checkAccess(sel *ast.SelectorExpr, h held) {
	v := w.c.fieldOf(sel)
	if v == nil || w.localBase(sel.X) {
		return
	}
	if mu, ok := w.c.guarded[v]; ok {
		want := types.ExprString(sel.X) + "." + mu
		if !h[want] && !w.c.waivers.At(w.file, sel.Pos()) {
			w.c.pass.Reportf(sel.Pos(),
				"%s is //gesp:guardedby:%s, but %s is not held here; lock it, declare "+
					"//gesp:holds:%s on the enclosing helper, or waive with //gesp:unsync + reason",
				types.ExprString(sel), mu, want, want)
		}
	}
	if w.c.atomic[v] && !w.c.atomicArgs[sel] && !w.c.waivers.At(w.file, sel.Pos()) {
		w.c.pass.Reportf(sel.Pos(),
			"%s is updated through sync/atomic elsewhere but accessed plainly here; "+
				"use atomic ops consistently or waive with //gesp:unsync + reason",
			types.ExprString(sel))
	}
}

// checkHoldsCall verifies //gesp:holds contracts at static call sites:
// x.helper() with helper declaring //gesp:holds:r.mu requires x.mu.
func (w *walker) checkHoldsCall(call *ast.CallExpr, h held) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := w.c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	decl, ok := w.c.decls[fn]
	if !ok {
		return
	}
	for _, d := range analysis.FuncDirectives(decl) {
		if d.Name != "holds" || d.Arg == "" {
			continue
		}
		_, mu, ok := strings.Cut(d.Arg, ".")
		if !ok {
			continue
		}
		want := types.ExprString(sel.X) + "." + mu
		if !h[want] && !w.c.waivers.At(w.file, call.Pos()) {
			w.c.pass.Reportf(call.Pos(),
				"%s declares //gesp:holds:%s, but %s is not held at this call",
				fn.Name(), d.Arg, want)
		}
	}
}

// localBase reports whether the access base is a variable local to the
// current function (declared inside its body): a value that has not
// escaped its constructor cannot be shared, so lock disciplines do not
// apply yet. Parameters and receivers are shared and stay checked.
func (w *walker) localBase(base ast.Expr) bool {
	for {
		switch x := base.(type) {
		case *ast.ParenExpr:
			base = x.X
		case *ast.SelectorExpr:
			base = x.X
		case *ast.IndexExpr:
			base = x.X
		case *ast.StarExpr:
			base = x.X
		case *ast.Ident:
			obj := w.c.pass.TypesInfo.Uses[x]
			if obj == nil {
				return false
			}
			if _, ok := obj.(*types.Var); !ok {
				return false
			}
			return w.fn.Body != nil && obj.Pos() > w.fn.Body.Lbrace && obj.Pos() < w.fn.Body.Rbrace
		default:
			return false
		}
	}
}

// lockEffect classifies a call as a lock-set mutation: it returns a
// non-nil effect for X.Lock/RLock (acquire) and X.Unlock/RUnlock
// (release) on a sync.Mutex or sync.RWMutex.
type effect struct {
	key     string
	acquire bool
}

func (w *walker) lockEffect(call *ast.CallExpr) *effect {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	var acquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return nil
	}
	t := w.c.pass.TypesInfo.TypeOf(sel.X)
	if t == nil || !isMutexType(t) {
		return nil
	}
	return &effect{key: types.ExprString(sel.X), acquire: acquire}
}

// applyEffects folds the lock/unlock calls of a leaf statement into the
// held set, skipping nested literals.
func (w *walker) applyEffects(s ast.Stmt, h held) held {
	ast.Inspect(s, func(nd ast.Node) bool {
		if _, ok := nd.(*ast.FuncLit); ok {
			return false
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		if e := w.lockEffect(call); e != nil {
			if e.acquire {
				h[e.key] = true
			} else {
				delete(h, e.key)
			}
		}
		return true
	})
	return h
}

// terminates reports whether a statement list always transfers control
// away (return, branch, or panic), so code after it is unreachable.
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	return terminatesStmt(list[len(list)-1])
}

func terminatesStmt(s ast.Stmt) bool {
	switch x := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		return terminates(x.List)
	case *ast.ExprStmt:
		call, ok := x.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	case *ast.IfStmt:
		if x.Else == nil {
			return false
		}
		return terminates(x.Body.List) && terminatesStmt(x.Else)
	}
	return false
}
