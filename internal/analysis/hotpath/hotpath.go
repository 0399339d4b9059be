// Package hotpath recognizes the //xic:hotpath marker that puts a function
// or a loop under hotalloc's zero-allocation contract.
//
// The marker attaches two ways:
//
//   - In (or as) the doc comment of a function declaration: the whole body,
//     function literals included, is hot.
//
//     //xic:hotpath
//     func (t *tableau[T, A]) pivot(leave, enter int, piv T) { ... }
//
//   - On the line directly above (or trailing) a for/range statement: that
//     loop's body is hot, the rest of the function is not.
//
//     //xic:hotpath
//     for ev := range events { ... }
//
// Like //xic:ignore, the directive tolerates "// xic:hotpath" (gofmt adds
// the space to non-directive comments); anything after the marker word is
// free-form commentary.
package hotpath

import (
	"go/ast"
	"go/token"
	"strings"
)

// Marks are the hot regions of one package's files.
type Marks struct {
	// Funcs are declarations whose whole body is hot.
	Funcs []*ast.FuncDecl
	// Loops are for/range statements whose body is hot.
	Loops []ast.Stmt
}

// isDirective reports whether a comment is the hotpath marker.
func isDirective(text string) bool {
	rest, ok := strings.CutPrefix(text, "//")
	if !ok {
		return false
	}
	rest = strings.TrimPrefix(rest, " ")
	rest, ok = strings.CutPrefix(rest, "xic:hotpath")
	return ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t')
}

// Scan finds every hot function and loop in files.
func Scan(fset *token.FileSet, files []*ast.File) *Marks {
	m := &Marks{}
	for _, f := range files {
		// Lines carrying the directive, for loop attachment.
		lines := make(map[int]bool)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if isDirective(c.Text) {
					lines[fset.Position(c.Pos()).Line] = true
				}
			}
		}
		if len(lines) == 0 {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fd.Doc != nil {
				for _, c := range fd.Doc.List {
					if isDirective(c.Text) {
						m.Funcs = append(m.Funcs, fd)
					}
				}
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					line := fset.Position(n.Pos()).Line
					if lines[line-1] || lines[line] {
						m.Loops = append(m.Loops, n.(ast.Stmt))
					}
				}
				return true
			})
		}
	}
	return m
}
