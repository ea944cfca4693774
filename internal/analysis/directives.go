package analysis

import (
	"go/ast"
	"go/token"
	"regexp"
	"slices"
	"strings"
	"unicode"
)

// directivePrefix is the comment namespace of the project's source
// annotations (see the package documentation for the vocabulary).
const directivePrefix = "//gesp:"

// Directive is one parsed //gesp: comment. The comment's first
// whitespace-delimited token after the prefix is the directive itself;
// a token may carry a colon-separated argument (guardedby:mu,
// holds:c.mu). Any text after the token is the directive's inline
// justification — waiver directives are required to say *why* (either
// inline or in an adjacent plain comment; see Justified).
type Directive struct {
	Name string // name before the first ':' ("errok", "guardedby", ...)
	Arg  string // argument after the first ':' ("mu" in guardedby:mu)
	// Inline is the free text following the token on the same comment
	// line: the directive's inline justification.
	Inline string
	Pos    token.Pos
	Line   int
}

// ParseDirective parses one comment's text as a //gesp: directive.
func ParseDirective(text string, pos token.Pos, line int) (Directive, bool) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(text), directivePrefix)
	if !ok {
		return Directive{}, false
	}
	cut := strings.IndexFunc(rest, unicode.IsSpace)
	tok, inline := rest, ""
	if cut >= 0 {
		tok, inline = rest[:cut], rest[cut:]
	}
	// Text after an embedded "//" is a separate trailing annotation
	// (e.g. an analysistest want expectation), not justification.
	if i := strings.Index(inline, "//"); i >= 0 {
		inline = inline[:i]
	}
	name, arg, _ := strings.Cut(tok, ":")
	if name == "" {
		return Directive{}, false
	}
	return Directive{
		Name:   name,
		Arg:    arg,
		Inline: strings.TrimSpace(inline),
		Pos:    pos,
		Line:   line,
	}, true
}

// HasFuncDirective reports whether the function declaration carries
// //gesp:<name> in its doc comment. Directive comments are attached to
// the doc CommentGroup by the parser but stripped from its Text(), so
// the raw comment list is scanned.
func HasFuncDirective(decl *ast.FuncDecl, name string) bool {
	_, ok := FuncDirective(decl, name)
	return ok
}

// FuncDirective returns the //gesp:<name> directive of the function's
// doc comment, if present.
func FuncDirective(decl *ast.FuncDecl, name string) (Directive, bool) {
	for _, d := range FuncDirectives(decl) {
		if d.Name == name {
			return d, true
		}
	}
	return Directive{}, false
}

// FuncDirectives returns every //gesp: directive of the function's doc
// comment.
func FuncDirectives(decl *ast.FuncDecl) []Directive {
	if decl == nil || decl.Doc == nil {
		return nil
	}
	var out []Directive
	for _, c := range decl.Doc.List {
		if d, ok := ParseDirective(c.Text, c.Pos(), 0); ok {
			out = append(out, d)
		}
	}
	return out
}

// FuncDirectiveJustified reports whether a doc-comment directive is
// accompanied by prose: either inline text after the directive token or
// any non-directive, non-empty line elsewhere in the doc group. A bare
// directive with no surrounding documentation is an unjustified waiver.
func FuncDirectiveJustified(decl *ast.FuncDecl, name string) bool {
	d, ok := FuncDirective(decl, name)
	if !ok {
		return false
	}
	if d.Inline != "" {
		return true
	}
	for _, c := range decl.Doc.List {
		if _, isDir := ParseDirective(c.Text, c.Pos(), 0); isDir {
			continue
		}
		if commentProse(c.Text) != "" {
			return true
		}
	}
	return false
}

// wantCommentRE matches analysistest expectation comments
// (`// want "..."`), which must not count as directive justification —
// otherwise fixtures could never exercise a bare waiver.
var wantCommentRE = regexp.MustCompile("^want\\s+[`\"]")

// commentProse strips the comment markers and returns the trimmed text,
// or "" for text that is not justification prose.
func commentProse(text string) string {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimPrefix(text, "/*")
	text = strings.TrimSuffix(text, "*/")
	text = strings.TrimSpace(text)
	if wantCommentRE.MatchString(text) {
		return ""
	}
	return text
}

// Directives indexes every //gesp: comment of a file by line number, so
// analyzers can honor annotations placed on (or immediately above) the
// statement they apply to — and check that waivers carry a reason.
type Directives struct {
	fset  *token.FileSet
	lines map[int][]Directive
	// prose marks lines bearing a non-directive comment with text: the
	// adjacent-comment form of directive justification.
	prose map[int]bool
}

// FileDirectives scans all comments of a file.
func FileDirectives(fset *token.FileSet, f *ast.File) *Directives {
	d := &Directives{fset: fset, lines: make(map[int][]Directive), prose: make(map[int]bool)}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			line := fset.Position(c.Pos()).Line
			if dir, ok := ParseDirective(c.Text, c.Pos(), line); ok {
				d.lines[line] = append(d.lines[line], dir)
				continue
			}
			if commentProse(c.Text) != "" {
				d.prose[line] = true
			}
		}
	}
	return d
}

// At reports whether directive name is written on the same line as pos
// or on the line directly above it.
func (d *Directives) At(pos token.Pos, name string) bool {
	_, ok := d.Find(pos, name)
	return ok
}

// Find returns the directive with the given name on the same line as
// pos or the line directly above it.
func (d *Directives) Find(pos token.Pos, name string) (Directive, bool) {
	line := d.fset.Position(pos).Line
	for _, l := range []int{line, line - 1} {
		for _, dir := range d.lines[l] {
			if dir.Name == name {
				return dir, true
			}
		}
	}
	return Directive{}, false
}

// Justified reports whether the directive carries a reason: inline text
// after its token, or a plain (non-directive) comment on its own line
// or the line directly above.
func (d *Directives) Justified(dir Directive) bool {
	return dir.Inline != "" || d.prose[dir.Line] || d.prose[dir.Line-1]
}

// Waivers is the ledger of one site-level waiver directive (allocok,
// unsync, wallclock) over the files an analyzer visits. A waiver on a
// site's line or the line directly above silences that site; a bare
// one still does (one site, one diagnostic) but is listed by Bare, so
// suppressions stay auditable.
type Waivers struct {
	name  string
	fset  *token.FileSet
	files map[*ast.File]*Directives
	// uses maps each directive's position to the first site it waived
	// and whether it carries a reason.
	uses map[token.Pos]waiverUse
}

type waiverUse struct {
	at        token.Pos
	justified bool
}

// NewWaivers returns an empty ledger for //gesp:<name>.
func NewWaivers(fset *token.FileSet, name string) *Waivers {
	return &Waivers{name: name, fset: fset,
		files: make(map[*ast.File]*Directives), uses: make(map[token.Pos]waiverUse)}
}

// Dirs returns the directive index of f, scanned once per file.
func (w *Waivers) Dirs(f *ast.File) *Directives {
	d, ok := w.files[f]
	if !ok {
		d = FileDirectives(w.fset, f)
		w.files[f] = d
	}
	return d
}

// At reports whether a waiver covers pos in file f (nil for code
// outside the program, which nothing waives).
func (w *Waivers) At(f *ast.File, pos token.Pos) bool {
	if f == nil {
		return false
	}
	d := w.Dirs(f)
	dir, ok := d.Find(pos, w.name)
	if !ok {
		return false
	}
	if _, seen := w.uses[dir.Pos]; !seen {
		w.uses[dir.Pos] = waiverUse{at: pos, justified: d.Justified(dir)}
	}
	return true
}

// Bare returns, in position order, the first site waived by each
// waiver that gives no reason: where that waiver is reported.
func (w *Waivers) Bare() []token.Pos {
	var out []token.Pos
	for _, u := range w.uses { //gesp:unordered
		if !u.justified {
			out = append(out, u.at)
		}
	}
	slices.Sort(out)
	return out
}

// EnclosingFuncHasDirective reports whether the innermost enclosing
// top-level function declaration of pos in file f carries the
// directive. Positions inside function literals inherit the annotation
// of the declaration that lexically contains them.
func EnclosingFuncHasDirective(f *ast.File, pos token.Pos, name string) bool {
	_, ok := EnclosingFuncDirective(f, pos, name)
	return ok
}

// EnclosingFuncDirective returns the directive carried by the top-level
// function declaration lexically containing pos, along with that
// declaration.
func EnclosingFuncDirective(f *ast.File, pos token.Pos, name string) (*ast.FuncDecl, bool) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || pos < fd.Pos() || pos > fd.End() {
			continue
		}
		if HasFuncDirective(fd, name) {
			return fd, true
		}
		return nil, false
	}
	return nil, false
}
