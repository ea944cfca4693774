// Package analysistest runs an analyzer over GOPATH-style fixture
// packages (testdata/src/<pkg>/*.go) and checks its diagnostics against
// // want "regexp" comments, mirroring the upstream
// golang.org/x/tools/go/analysis/analysistest contract: every
// diagnostic must be expected by a want on its line, and every want
// must be matched by a diagnostic.
package analysistest

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"gesp/internal/analysis"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData() string {
	p, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return p
}

// want is one expected diagnostic.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`^//\s*want\s+(.*)$`)
var quotedRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// Run loads each fixture package from testdata/src, applies the
// analyzer, and reports mismatches through t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	loader := analysis.NewFixtureLoader(filepath.Join(testdata, "src"), nil)
	for _, pkg := range pkgs {
		p, err := loader.Load(pkg)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", pkg, err)
		}
		diags, err := analysis.RunAnalyzer(a, p)
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, pkg, err)
		}
		wants, err := collectWants(p)
		if err != nil {
			t.Fatalf("parsing want comments in %s: %v", pkg, err)
		}
		check(t, p.Fset, diags, wants)
	}
}

// RunProgram loads the fixture packages (plus anything they import from
// testdata/src) into one program, applies the whole-program analyzer
// once, and checks its diagnostics against the want comments of every
// loaded fixture file.
func RunProgram(t *testing.T, testdata string, a *analysis.ProgramAnalyzer, pkgs ...string) {
	t.Helper()
	loader := analysis.NewFixtureLoader(filepath.Join(testdata, "src"), nil)
	for _, pkg := range pkgs {
		if _, err := loader.Load(pkg); err != nil {
			t.Fatalf("loading fixture %s: %v", pkg, err)
		}
	}
	prog := analysis.NewProgram(loader.Fset(), loader.Loaded())
	diags, err := analysis.RunProgramAnalyzer(a, prog)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	var wants []*want
	for _, p := range prog.Pkgs {
		w, err := collectWants(p)
		if err != nil {
			t.Fatalf("parsing want comments in %s: %v", p.Path, err)
		}
		wants = append(wants, w...)
	}
	check(t, loader.Fset(), diags, wants)
}

// RunModule loads the named packages of the enclosing module (plus
// everything they import from it) into one program, applies the
// whole-program analyzer once, and fails t on every diagnostic: the
// real tree must be clean.
func RunModule(t *testing.T, a *analysis.ProgramAnalyzer, pkgs ...string) {
	t.Helper()
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			t.Fatal("no go.mod above the test directory")
		}
		root = parent
	}
	loader, err := analysis.NewLoader(root, nil)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, pkg := range pkgs {
		if _, err := loader.Load(pkg); err != nil {
			t.Fatalf("loading %s: %v", pkg, err)
		}
	}
	prog := analysis.NewProgram(loader.Fset(), loader.Loaded())
	diags, err := analysis.RunProgramAnalyzer(a, prog)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s (%s)", prog.Fset.Position(d.Pos), d.Message, a.Name)
	}
}

// check claims each diagnostic against the wants and reports both
// unexpected diagnostics and unmatched wants.
func check(t *testing.T, fset *token.FileSet, diags []analysis.Diagnostic, wants []*want) {
	t.Helper()
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if !claim(wants, pos, d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

func collectWants(p *analysis.Package) ([]*want, error) {
	var wants []*want
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				quoted := quotedRE.FindAllString(m[1], -1)
				if len(quoted) == 0 {
					return nil, fmt.Errorf("%s: want comment with no quoted pattern", pos)
				}
				for _, q := range quoted {
					s, err := strconv.Unquote(q)
					if err != nil {
						return nil, fmt.Errorf("%s: %v", pos, err)
					}
					re, err := regexp.Compile(s)
					if err != nil {
						return nil, fmt.Errorf("%s: %v", pos, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants, nil
}

func claim(wants []*want, pos token.Position, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}
