package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Suppression comments
//
// A determinism diagnostic other than a wall-clock read is suppressed by
// a comment of the form
//
//	//fabriclint:nondeterministic <justification>
//
// placed either at the end of the offending line or alone on the line
// immediately above it. The justification is mandatory: a suppression
// explains *why* the contract does not apply at this site (e.g. "this
// goroutine never touches the engine"). A bare suppression is itself
// reported — an unexplained exemption is how contracts rot — and so is
// any other kind: nondeterministic is the only one, so a comment naming
// another would exempt nothing while looking as if it did.

const (
	suppressPrefix = "//fabriclint:"
	suppressKind   = "nondeterministic"
)

// buildSuppressions indexes every fabriclint comment in the pass by
// (filename, line), reporting the malformed ones. A whole-line comment
// suppresses the next line; a trailing comment suppresses its own line.
func (p *Pass) buildSuppressions() {
	p.suppressions = map[string]map[int]bool{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(strings.TrimSpace(c.Text), suppressPrefix)
				if !ok {
					continue
				}
				kind, just, _ := strings.Cut(rest, " ")
				if kind != suppressKind {
					p.Reportf(c.Pos(), "unknown suppression kind fabriclint:%s: the only kind is fabriclint:%s", kind, suppressKind)
					continue
				}
				if strings.TrimSpace(just) == "" {
					p.Reportf(c.Pos(), "fabriclint:%s suppression requires a justification", kind)
				}
				pos := p.Fset.Position(c.Pos())
				byLine := p.suppressions[pos.Filename]
				if byLine == nil {
					byLine = map[int]bool{}
					p.suppressions[pos.Filename] = byLine
				}
				// A comment on its own line covers the following line;
				// a trailing comment covers its own.
				line := pos.Line
				if p.commentOwnsLine(f, c, line) {
					line++
				}
				byLine[line] = true
			}
		}
	}
}

// commentOwnsLine reports whether c is the first thing on its line (a
// whole-line comment) rather than trailing code.
func (p *Pass) commentOwnsLine(f *ast.File, c *ast.Comment, line int) bool {
	tf := p.Fset.File(c.Pos())
	if tf == nil {
		return false
	}
	// If any non-comment node of the file starts earlier on the same
	// line, the comment trails code. Scanning the raw offsets would need
	// the source; comparing against the line start via column is enough:
	// a whole-line comment's column is its indentation, and code before
	// it would have produced a smaller column for some token — but we do
	// not have per-token lines here. Use the cheap exact rule instead:
	// the comment owns the line iff no AST node on that line begins
	// before it.
	owns := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !owns {
			return false
		}
		if n.Pos() == token.NoPos {
			return true
		}
		if p.Fset.Position(n.Pos()).Line == line && n.Pos() < c.Pos() {
			if _, isComment := n.(*ast.Comment); !isComment {
				if _, isGroup := n.(*ast.CommentGroup); !isGroup {
					if _, isFile := n.(*ast.File); !isFile {
						owns = false
					}
				}
			}
		}
		return n.Pos() <= c.Pos() || p.Fset.Position(n.Pos()).Line <= line
	})
	return owns
}

// Suppressed reports whether a diagnostic at pos is covered by a
// suppression comment. One without a justification still suppresses:
// buildSuppressions has already reported it, and one finding is enough.
func (p *Pass) Suppressed(pos token.Pos) bool {
	position := p.Fset.Position(pos)
	return p.suppressions[position.Filename][position.Line]
}
