// Command gesp-lint is the multichecker driver for the project's custom
// static analyzers (see internal/analysis): structural and determinism
// invariants of the static-pivot pipeline that go vet cannot see. It
// runs the per-package analyzers (errdrop, floatcmp, guardedby, mapiter)
// over every requested package and the whole-program analyzers
// (detclock, hotalloc) once over the loaded package set with a shared
// call graph.
//
// Usage:
//
//	gesp-lint [-checks detclock,errdrop,...] [-tags taglist] [-json] [packages]
//
// Packages default to ./... relative to the enclosing module. With
// -json, diagnostics are emitted as a JSON array of objects with file,
// line, col, message, and analyzer fields (for CI annotation); the
// human-readable format is "file:line:col: message (analyzer)". The
// exit status is 1 when any diagnostic is reported, 2 on usage or load
// errors, matching go vet's convention.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gesp/internal/analysis"
	"gesp/internal/analysis/detclock"
	"gesp/internal/analysis/errdrop"
	"gesp/internal/analysis/floatcmp"
	"gesp/internal/analysis/guardedby"
	"gesp/internal/analysis/hotalloc"
	"gesp/internal/analysis/mapiter"
)

var allPkg = []*analysis.Analyzer{
	errdrop.Analyzer,
	floatcmp.Analyzer,
	guardedby.Analyzer,
	mapiter.Analyzer,
}

var allProg = []*analysis.ProgramAnalyzer{
	detclock.Analyzer,
	hotalloc.Analyzer,
}

// finding is one diagnostic in driver-neutral form, ready for either
// output format.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Analyzer string `json:"analyzer"`
}

func main() {
	checks := flag.String("checks", "", "comma-separated analyzers to run (default: all)")
	tags := flag.String("tags", "", "comma-separated build tags")
	asJSON := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	list := flag.Bool("list", false, "list available analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: gesp-lint [flags] [packages]\n\nAnalyzers:\n")
		for _, name := range analyzerNames() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", name, docOf(name))
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, name := range analyzerNames() {
			fmt.Printf("%-12s %s\n", name, docOf(name))
		}
		return
	}

	pkgEnabled, progEnabled, err := selectAnalyzers(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gesp-lint:", err)
		os.Exit(2)
	}

	modDir, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gesp-lint:", err)
		os.Exit(2)
	}
	loader, err := analysis.NewLoader(modDir, splitList(*tags))
	if err != nil {
		fmt.Fprintln(os.Stderr, "gesp-lint:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	paths, err := loader.Expand(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gesp-lint:", err)
		os.Exit(2)
	}

	var findings []finding
	record := func(name string, diags []analysis.Diagnostic) {
		for _, d := range diags {
			pos := loader.Fset().Position(d.Pos)
			rel, rerr := filepath.Rel(modDir, pos.Filename)
			if rerr != nil {
				rel = pos.Filename
			}
			findings = append(findings, finding{
				File: rel, Line: pos.Line, Col: pos.Column,
				Message: d.Message, Analyzer: name,
			})
		}
	}

	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gesp-lint:", err)
			os.Exit(2)
		}
		for _, a := range pkgEnabled {
			diags, err := analysis.RunAnalyzer(a, pkg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gesp-lint:", err)
				os.Exit(2)
			}
			record(a.Name, diags)
		}
	}

	if len(progEnabled) > 0 {
		prog := analysis.NewProgram(loader.Fset(), loader.Loaded())
		for _, a := range progEnabled {
			diags, err := analysis.RunProgramAnalyzer(a, prog)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gesp-lint:", err)
				os.Exit(2)
			}
			record(a.Name, diags)
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "gesp-lint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s (%s)\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "gesp-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func analyzerNames() []string {
	var names []string
	for _, a := range allPkg {
		names = append(names, a.Name)
	}
	for _, a := range allProg {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}

func docOf(name string) string {
	for _, a := range allPkg {
		if a.Name == name {
			return a.Doc
		}
	}
	for _, a := range allProg {
		if a.Name == name {
			return a.Doc
		}
	}
	return ""
}

func selectAnalyzers(checks string) ([]*analysis.Analyzer, []*analysis.ProgramAnalyzer, error) {
	if checks == "" {
		return allPkg, allProg, nil
	}
	byName := make(map[string]*analysis.Analyzer)
	for _, a := range allPkg {
		byName[a.Name] = a
	}
	progByName := make(map[string]*analysis.ProgramAnalyzer)
	for _, a := range allProg {
		progByName[a.Name] = a
	}
	var pkgs []*analysis.Analyzer
	var progs []*analysis.ProgramAnalyzer
	for _, name := range splitList(checks) {
		switch {
		case byName[name] != nil:
			pkgs = append(pkgs, byName[name])
		case progByName[name] != nil:
			progs = append(progs, progByName[name])
		default:
			return nil, nil, fmt.Errorf("unknown analyzer %q (have %s)",
				name, strings.Join(analyzerNames(), ", "))
		}
	}
	return pkgs, progs, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
