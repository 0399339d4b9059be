package xmltree

import (
	"fmt"
	"io"
	"strings"

	"xic/internal/dtd"
	"xic/internal/xmlscan"
)

// ParseError is a document syntax or structure error with its source
// position: the 1-based line and the 0-based byte offset at which
// reading stopped — for a structure error, the offset just past the
// offending token. It unwraps to the scanner's *xmlscan.Error when there
// is one.
type ParseError struct {
	Line   int
	Offset int64
	Msg    string
	Err    error
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("xmltree: line %d: %s", e.Line, e.Msg)
}

// Unwrap returns the underlying scanner error, if any.
func (e *ParseError) Unwrap() error { return e.Err }

// Reader reads the paper's document model from XML text: the scanner's
// events, restricted to one root element, with blank text (XML white
// space only, xmlscan.IsSpace) dropped and attribute names checked for
// local-name collisions. The tree parser and the streaming checker both
// read documents through it, so the two cannot drift apart on which
// documents they reject or how they say so. The embedded scanner gives
// the current event's name, attributes, text and position.
type Reader struct {
	*xmlscan.Scanner
	depth    int
	rootSeen bool
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{Scanner: xmlscan.New(r)}
}

// Next returns the next model event: xmlscan.StartElement,
// xmlscan.EndElement, xmlscan.Text (never blank, always inside the root)
// or xmlscan.EOF once the root element has closed and the input ended.
// Syntax and structure errors are *ParseError values; errors reading the
// underlying input are returned wrapped.
func (r *Reader) Next() (xmlscan.Kind, error) {
	for {
		k, err := r.Scanner.Next()
		if err != nil {
			if se, ok := err.(*xmlscan.Error); ok {
				return k, &ParseError{Line: se.Line, Offset: se.Offset, Msg: se.Msg, Err: se}
			}
			return k, fmt.Errorf("xmltree: read document: %w", err)
		}
		switch k {
		case xmlscan.StartElement:
			if msg := attrCollision(r.Name(), r.Attrs()); msg != "" {
				return k, r.errorf("%s", msg)
			}
			if r.depth == 0 {
				if r.rootSeen {
					return k, r.errorf("multiple root elements (second is %q)", r.Name())
				}
				r.rootSeen = true
			}
			r.depth++
		case xmlscan.EndElement:
			r.depth--
		case xmlscan.Text:
			if xmlscan.IsSpace(r.Text()) {
				continue
			}
			if r.depth == 0 {
				return k, r.errorf("character data outside the root element")
			}
		case xmlscan.EOF:
			if !r.rootSeen {
				return k, r.errorf("no root element")
			}
		}
		return k, nil
	}
}

// errorf returns a structure error positioned at the current event.
func (r *Reader) errorf(format string, args ...any) *ParseError {
	return &ParseError{Line: r.Line(), Offset: r.Offset(), Msg: fmt.Sprintf(format, args...)}
}

// attrCollision describes two attributes of the start tag that share a
// local name — for example a:id and b:id, or a plain duplicate — or
// returns "". The paper's model has plain single-valued attribute names,
// so such documents cannot be represented faithfully and must be
// rejected rather than silently keeping one value.
func attrCollision(element []byte, attrs []xmlscan.Attr) string {
	for i := 1; i < len(attrs); i++ {
		for j := 0; j < i; j++ {
			if string(attrs[i].Local) == string(attrs[j].Local) {
				return fmt.Sprintf("element %q: attributes %s and %s collide on local name %q; values would silently overwrite",
					element, attrs[j].Name, attrs[i].Name, attrs[i].Local)
			}
		}
	}
	return ""
}

// Builder assembles a Tree from model events, as delivered by a Reader
// or by a checker consuming one.
type Builder struct {
	stack []*Node
	root  *Node
	names map[string]string
	slab  []Node // nodes not handed out yet
	grow  int    // size of the next slab
}

// intern returns name as a string shared by every equal name of the
// document.
func (b *Builder) intern(name []byte) string {
	if s, ok := b.names[string(name)]; ok {
		return s
	}
	if b.names == nil {
		b.names = make(map[string]string)
	}
	s := string(name)
	b.names[s] = s
	return s
}

// node returns a fresh node, carved from a slab so that a document costs
// one allocation per slab rather than one per node. Slabs double from 8
// to 256 nodes, so a small fragment stays cheap.
func (b *Builder) node() *Node {
	if len(b.slab) == 0 {
		b.grow = min(max(2*b.grow, 8), 256)
		b.slab = make([]Node, b.grow)
	}
	n := &b.slab[0]
	b.slab = b.slab[1:]
	return n
}

// Start opens an element as the last child of the open element, or as
// the root.
func (b *Builder) Start(label string, attrs []xmlscan.Attr) {
	n := b.node()
	n.Label = label
	if len(attrs) > 0 {
		n.Attrs = make(map[string]string, len(attrs))
		for _, a := range attrs {
			n.Attrs[b.intern(a.Local)] = string(a.Value)
		}
	}
	if len(b.stack) == 0 {
		b.root = n
	} else {
		p := b.stack[len(b.stack)-1]
		p.Children = append(p.Children, n)
	}
	b.stack = append(b.stack, n)
}

// Text adds character data to the open element, extending its last
// child when that is text already: adjacent runs form one text node.
func (b *Builder) Text(text []byte) {
	p := b.stack[len(b.stack)-1]
	if k := len(p.Children); k > 0 && p.Children[k-1].IsText() {
		p.Children[k-1].Value += string(text)
		return
	}
	n := b.node()
	n.Label, n.Value = dtd.TextSymbol, string(text)
	p.Children = append(p.Children, n)
}

// End closes the open element and returns it.
func (b *Builder) End() *Node {
	n := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	return n
}

// Tree returns the tree built so far.
func (b *Builder) Tree() *Tree { return NewTree(b.root) }

// Parse reads an XML document into a tree. Blank character data (XML
// white space only) is discarded — it is markup formatting, not content;
// other character data becomes text nodes, with adjacent runs coalesced.
// Processing instructions, comments and directives are skipped, matching
// the simplifications of the paper's model. Errors are *ParseError values
// carrying the line and byte offset of the offending construct.
func Parse(r io.Reader) (*Tree, error) {
	rd := NewReader(r)
	var b Builder
	for {
		k, err := rd.Next()
		if err != nil {
			return nil, err
		}
		switch k {
		case xmlscan.StartElement:
			b.Start(b.intern(rd.Name()), rd.Attrs())
		case xmlscan.EndElement:
			b.End()
		case xmlscan.Text:
			b.Text(rd.Text())
		case xmlscan.EOF:
			return b.Tree(), nil
		}
	}
}

// ParseString is Parse on a string.
func ParseString(s string) (*Tree, error) {
	return Parse(strings.NewReader(s))
}
