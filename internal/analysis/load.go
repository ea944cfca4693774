package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: the unit the analyzers
// consume.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages without the go/packages
// machinery: module-local import paths are resolved to directories and
// type-checked from source recursively, everything else is delegated to
// the compiler's source importer (which handles GOROOT). All loads
// share one FileSet and one cache, so each package is type-checked
// exactly once and type identity is preserved across imports.
type Loader struct {
	fset *token.FileSet
	std  types.Importer
	tags map[string]bool
	info *types.Info

	// resolve maps a non-stdlib import path to its directory; ok=false
	// falls through to the stdlib importer.
	resolve func(path string) (string, bool)

	modPath string // module path, "" for fixture loaders
	modDir  string

	pkgs    map[string]*Package
	loading map[string]bool
}

func newLoader(tags []string) *Loader {
	fset := token.NewFileSet()
	l := &Loader{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		tags:    make(map[string]bool),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Instances:  make(map[*ast.Ident]types.Instance),
		},
	}
	for _, t := range tags {
		if t != "" {
			l.tags[t] = true
		}
	}
	return l
}

// NewLoader builds a loader rooted at the module directory containing
// go.mod. Build tags (for //go:build evaluation) are optional.
func NewLoader(modDir string, tags []string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(modDir, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: loader: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", modDir)
	}
	l := newLoader(tags)
	l.modPath, l.modDir = modPath, modDir
	l.resolve = func(path string) (string, bool) {
		if path == modPath {
			return modDir, true
		}
		if rest, ok := strings.CutPrefix(path, modPath+"/"); ok {
			return filepath.Join(modDir, filepath.FromSlash(rest)), true
		}
		return "", false
	}
	return l, nil
}

// NewFixtureLoader builds a loader for analysistest fixtures: any
// import path whose directory exists under srcRoot (GOPATH-style
// srcRoot/<path>) resolves there; everything else is stdlib.
func NewFixtureLoader(srcRoot string, tags []string) *Loader {
	l := newLoader(tags)
	l.resolve = func(path string) (string, bool) {
		dir := filepath.Join(srcRoot, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, true
		}
		return "", false
	}
	return l
}

// Fset returns the loader's shared FileSet.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Loaded returns every module-local (or fixture) package loaded so far,
// sorted by import path: the program a ProgramAnalyzer sees. Stdlib
// packages resolved by the compiler importer are not included.
func (l *Loader) Loaded() []*Package {
	out := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs { //gesp:unordered
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Import implements types.Importer so a Loader can resolve the imports
// of the packages it loads.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.resolve(path); ok {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// Load parses and type-checks the package at the import path, loading
// its module-local dependencies recursively.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, ok := l.resolve(path)
	if !ok {
		return nil, fmt.Errorf("analysis: cannot resolve %q to a directory", path)
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: l.info}
	l.pkgs[path] = p
	return p, nil
}

// parseDir parses the non-test Go files of a directory that satisfy the
// loader's build tags.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if l.fileIncluded(f) {
			files = append(files, f)
		}
	}
	return files, nil
}

// fileIncluded evaluates the file's //go:build (or legacy +build)
// constraints against the loader's tag set. GOOS/GOARCH file-name
// suffixes are not interpreted, so the project's architecture-specific
// files (internal/kernels/tile_amd64.go, tile_other.go) state their
// architecture in a //go:build line as well.
func (l *Loader) fileIncluded(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) && !constraint.IsPlusBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue
			}
			if !expr.Eval(l.tagActive) {
				return false
			}
		}
	}
	return true
}

var releaseTagRE = regexp.MustCompile(`^go1\.\d+$`)

func (l *Loader) tagActive(tag string) bool {
	return l.tags[tag] || tag == runtime.GOOS || tag == runtime.GOARCH ||
		tag == runtime.Compiler || releaseTagRE.MatchString(tag)
}

// Expand resolves package patterns to import paths. Supported shapes:
// "./..." and "./dir/..." subtree wildcards, "./dir" relative
// directories, and explicit import paths within the module. Only
// directories containing at least one non-test Go file are returned.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	if l.modPath == "" {
		return nil, fmt.Errorf("analysis: Expand requires a module loader")
	}
	seen := make(map[string]bool)
	var out []string
	add := func(path string) {
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	for _, pat := range patterns {
		switch {
		case strings.HasSuffix(pat, "..."):
			base := strings.TrimSuffix(pat, "...")
			base = strings.TrimSuffix(base, "/")
			if base == "." || base == "" {
				base = l.modDir
			} else {
				base = filepath.Join(l.modDir, filepath.FromSlash(strings.TrimPrefix(base, "./")))
			}
			err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != base && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if !hasGoFiles(p) {
					return nil
				}
				rel, err := filepath.Rel(l.modDir, p)
				if err != nil {
					return err
				}
				if rel == "." {
					add(l.modPath)
				} else {
					add(l.modPath + "/" + filepath.ToSlash(rel))
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		case strings.HasPrefix(pat, "./") || pat == ".":
			rel := strings.TrimPrefix(pat, "./")
			if rel == "." || rel == "" {
				add(l.modPath)
			} else {
				add(l.modPath + "/" + filepath.ToSlash(rel))
			}
		default:
			add(pat)
		}
	}
	sort.Strings(out)
	return out, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
