// Package analysis is a minimal, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis vocabulary, built so the gesp-lint
// suite can run in environments without the x/tools module. It keeps
// the same core shapes — an Analyzer with a Run(*Pass) entry point that
// reports Diagnostics — so the analyzers port verbatim to the upstream
// framework if x/tools ever becomes available.
//
// The package also defines the project's source annotations, written as
// machine-readable directive comments in the //gesp: namespace:
//
//	//gesp:hotpath    — the function is an allocation-free kernel;
//	                    the hotalloc analyzer enforces it.
//	//gesp:wallclock  — the function intentionally reads the host
//	                    wall clock (real-time measurement, never the
//	                    simulator's virtual clock); silences detclock.
//	//gesp:unordered  — the annotated map iteration is order-
//	                    insensitive; silences mapiter.
//	//gesp:floateq    — the annotated float comparison is intentionally
//	                    exact; silences floatcmp.
//	//gesp:errok      — the annotated call's error is deliberately
//	                    discarded (say why in a comment); silences
//	                    errdrop.
//	//gesp:guardedby:<mu> — the annotated struct field may only be
//	                    accessed with the sibling mutex <mu> held; the
//	                    guardedby analyzer enforces it.
//	//gesp:holds:<mu> — callers of the annotated function must already
//	                    hold <mu> (receiver-relative for methods, e.g.
//	                    holds:c.mu); guardedby assumes it inside the
//	                    body and checks it at static call sites.
//	//gesp:unsync     — the annotated field access is intentionally
//	                    unsynchronized (say why); silences guardedby.
//	//gesp:allocok    — the annotated call may allocate even though it
//	                    is reachable from a //gesp:hotpath function
//	                    (say why); silences hotalloc for that edge.
//
// Waiver directives (errok, wallclock on a call site, unsync, allocok)
// must carry a justification: free text after the directive token, or a
// plain comment on the same line or the line directly above. A bare
// waiver is itself a diagnostic.
//
// Like //go:build directives, these are written with no space after
// "//" and are therefore excluded from godoc text.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -checks flags.
	Name string
	// Doc is the one-paragraph description shown by gesp-lint -help.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers a diagnostic. The driver and the test harness
	// install their own sinks.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.TypesInfo.TypeOf(e) }

// RunAnalyzer applies a to pkg and returns the diagnostics sorted by
// position. Used by both the driver and the analysistest harness.
func RunAnalyzer(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report:    func(d Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// ProgramAnalyzer describes one whole-program static check: unlike an
// Analyzer, which sees one package at a time, it runs once over every
// loaded package and may reason across package boundaries (call graphs,
// transitive reachability, cross-package field access).
type ProgramAnalyzer struct {
	// Name identifies the analyzer in diagnostics and -checks flags.
	Name string
	// Doc is the one-paragraph description shown by gesp-lint -help.
	Doc string
	// Run applies the analyzer to the whole program.
	Run func(*ProgramPass) error
}

// Program is the whole-program view handed to ProgramAnalyzers: every
// package the driver loaded (for gesp-lint, the full module), sharing
// one FileSet and one types.Info. Derived artifacts that several
// analyzers need — the call graph above all — are built once and shared
// through Cached.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package

	cache map[any]any
}

// NewProgram assembles a Program from loaded packages.
func NewProgram(fset *token.FileSet, pkgs []*Package) *Program {
	return &Program{Fset: fset, Pkgs: pkgs, cache: make(map[any]any)}
}

// Cached returns the artifact stored under key, building and memoizing
// it on first use. The whole-program call graph is built this way so
// both whole-program analyzers share one construction.
func (p *Program) Cached(key any, build func() (any, error)) (any, error) {
	if v, ok := p.cache[key]; ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	p.cache[key] = v
	return v, nil
}

// ProgramPass carries one program analyzer's view of the program.
type ProgramPass struct {
	Analyzer *ProgramAnalyzer
	Prog     *Program

	// Report delivers a diagnostic. The driver and the test harness
	// install their own sinks.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// RunProgramAnalyzer applies a to the program and returns the
// diagnostics sorted by position.
func RunProgramAnalyzer(a *ProgramAnalyzer, prog *Program) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &ProgramPass{
		Analyzer: a,
		Prog:     prog,
		Report:   func(d Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}
