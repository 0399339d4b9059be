package xmltree

import (
	"strings"
	"unicode/utf8"
)

// maxIndent caps the indentation depth of Serialize, so the output of a
// deeply nested tree grows linearly with its size rather than with the
// square of its depth.
const maxIndent = 32

var indentRun = strings.Repeat("  ", maxIndent)

// indent returns the indentation of a line at the given depth.
func indent(depth int) string { return indentRun[:2*min(depth, maxIndent)] }

// Serialize renders the tree as indented XML text, two spaces per level
// up to maxIndent levels. Attributes are emitted in the sorted name order
// the node keeps them in, so output is deterministic. The walk is iterative, so nesting depth is
// bounded by memory, not by the goroutine stack.
func Serialize(t *Tree) string {
	if t == nil || t.Root == nil {
		return ""
	}
	w := serializer{}
	w.open(t.Root)
	for len(w.stack) > 0 {
		top := &w.stack[len(w.stack)-1]
		if top.next < len(top.n.Children) {
			c := top.n.Children[top.next]
			top.next++
			w.open(c)
			continue
		}
		w.stack = w.stack[:len(w.stack)-1]
		w.b.WriteString(indent(len(w.stack)))
		w.b.WriteString("</")
		w.b.WriteString(top.n.Label)
		w.b.WriteString(">\n")
	}
	return w.b.String()
}

// serializer is the state of one Serialize walk: the elements whose
// children are being written, each with the index of its next child.
type serializer struct {
	b     strings.Builder
	stack []struct {
		n    *Node
		next int
	}
}

// open writes a node at the current depth: text and childless or
// text-only elements whole, other elements' start tags, pushing them so
// their children and end tags follow.
func (w *serializer) open(n *Node) {
	b := &w.b
	b.WriteString(indent(len(w.stack)))
	if n.IsText() {
		escape(b, n.Value)
		b.WriteString("\n")
		return
	}
	b.WriteString("<")
	b.WriteString(n.Label)
	for _, a := range n.attrs {
		b.WriteString(" ")
		b.WriteString(a.Name)
		b.WriteString(`="`)
		escape(b, a.Value)
		b.WriteString(`"`)
	}
	switch {
	case len(n.Children) == 0:
		b.WriteString("/>\n")
	case len(n.Children) == 1 && n.Children[0].IsText():
		// A single text child is written inline for readability.
		b.WriteString(">")
		escape(b, n.Children[0].Value)
		b.WriteString("</")
		b.WriteString(n.Label)
		b.WriteString(">\n")
	default:
		b.WriteString(">\n")
		w.stack = append(w.stack, struct {
			n    *Node
			next int
		}{n, 0})
	}
}

// escape writes s as XML character data: the markup characters, quotes,
// tab, newline and carriage return as references, and anything that is
// not valid UTF-8 in the XML character range as U+FFFD — the escaping of
// encoding/xml's EscapeText, so a serialized tree reads back unchanged.
func escape(b *strings.Builder, s string) {
	last := 0
	for i := 0; i < len(s); {
		r, width := utf8.DecodeRuneInString(s[i:])
		var esc string
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if (r != utf8.RuneError || width > 1) && (r >= 0x20 && r <= 0xD7FF || r >= 0xE000 && r <= 0xFFFD || r >= 0x10000) {
				i += width
				continue
			}
			esc = "\uFFFD"
		}
		b.WriteString(s[last:i])
		b.WriteString(esc)
		i += width
		last = i
	}
	b.WriteString(s[last:])
}
