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
// or by a checker consuming one. A document costs a few allocations per
// slab rather than several per element: its nodes, attribute pairs and
// child lists are carved from per-document slabs, and its attribute
// values and text from one append-only arena. Every carved slice is full
// (s[i:j:j]), so a later SetAttr of a new name, Append or insert
// reallocates it rather than writing over a neighbour's.
type Builder struct {
	open  []openElem // the open elements, innermost last
	kids  []*Node    // the open elements' children so far, each one's after its parent's
	root  *Node
	names map[string]string
	nodes slab[Node]
	attrs slab[Attr]
	lists slab[*Node]
	text  arena
}

// openElem is an element whose end tag has not come yet, with where its
// children start in Builder.kids.
type openElem struct {
	n     *Node
	first int
}

// intern returns name as a string shared by every equal name of the
// document.
//
//xic:hotpath
func (b *Builder) intern(name []byte) string {
	if s, ok := b.names[string(name)]; ok { //xic:ignore hotalloc the compiler does not copy a []byte converted only to index a map
		return s
	}
	return b.addName(name) //xic:ignore hotalloc one string per distinct name of the document
}

func (b *Builder) addName(name []byte) string {
	if b.names == nil {
		b.names = make(map[string]string)
	}
	s := string(name)
	b.names[s] = s
	return s
}

// Start opens an element as the last child of the open element, or as
// the root.
//
//xic:hotpath
func (b *Builder) Start(label string, attrs []xmlscan.Attr) {
	n := &b.nodes.carve(1)[0]
	n.Label = label
	if len(attrs) > 0 {
		n.attrs = b.attrs.carve(len(attrs))
		for i, a := range attrs {
			n.attrs[i] = Attr{Name: b.intern(a.Local), Value: b.text.add(a.Value)}
		}
		sortAttrs(n.attrs)
	}
	if len(b.open) == 0 {
		b.root = n
	} else {
		b.kids = append(b.kids, n) //xic:ignore hotalloc amortized growth: the pending children warm to the document's widest open elements
	}
	b.open = append(b.open, openElem{n: n, first: len(b.kids)}) //xic:ignore hotalloc amortized growth: the open elements warm to the document's depth
}

// sortAttrs sorts a start tag's few attribute pairs by name, in place.
//
//xic:hotpath
func sortAttrs(attrs []Attr) {
	for i := 1; i < len(attrs); i++ {
		for j := i; j > 0 && attrs[j].Name < attrs[j-1].Name; j-- {
			attrs[j], attrs[j-1] = attrs[j-1], attrs[j]
		}
	}
}

// Text adds character data to the open element, extending its last
// child when that is text already: adjacent runs form one text node,
// built once in the arena.
//
//xic:hotpath
func (b *Builder) Text(text []byte) {
	if k := len(b.kids); k > b.open[len(b.open)-1].first && b.kids[k-1].IsText() {
		// Only comments, processing instructions and CDATA sections
		// split a run, and none writes to the arena: the run is the
		// arena's latest value.
		last := b.kids[k-1]
		last.Value = b.text.extend(last.Value, text)
		return
	}
	n := &b.nodes.carve(1)[0]
	n.Label, n.Value = dtd.TextSymbol, b.text.add(text)
	b.kids = append(b.kids, n) //xic:ignore hotalloc amortized growth: the pending children warm to the document's widest open elements
}

// End closes the open element, giving it its exact list of children, and
// returns it.
//
//xic:hotpath
func (b *Builder) End() *Node {
	e := b.open[len(b.open)-1]
	b.open = b.open[:len(b.open)-1]
	if k := len(b.kids) - e.first; k > 0 {
		e.n.Children = b.lists.carve(k)
		copy(e.n.Children, b.kids[e.first:])
		b.kids = b.kids[:e.first]
	}
	return e.n
}

// Tree returns the tree built so far. An element's children are set at
// its end tag.
func (b *Builder) Tree() *Tree { return NewTree(b.root) }

// Slab sizes, in elements: a slab doubles from minSlab to maxSlab, so a
// small fragment stays cheap and a large document pays one allocation per
// maxSlab elements.
const (
	minSlab = 8
	maxSlab = 256
)

// slab hands out exactly sized slices of a per-document buffer.
type slab[T any] struct {
	free []T
	size int // the size of the current buffer
}

// carve returns k zero elements as a full slice.
//
//xic:hotpath
func (s *slab[T]) carve(k int) []T {
	if k > len(s.free) {
		s.refill(k) //xic:ignore hotalloc cold: one buffer per filled slab, slabs doubling up to maxSlab
	}
	c := s.free[:k:k]
	s.free = s.free[k:]
	return c
}

// refill replaces the buffer with one twice its size, up to maxSlab
// elements, or with one of exactly k elements for a larger request (a
// wide element's children). The old buffer's rest stays unused.
func (s *slab[T]) refill(k int) {
	s.size = min(max(2*s.size, minSlab), maxSlab)
	s.free = make([]T, max(s.size, k))
}

// Arena chunk sizes, in bytes: chunks double from minChunk to maxChunk.
const (
	minChunk = 256
	maxChunk = 64 << 10
)

// arena is a document's append-only store of attribute values and text.
// A value is a view of the current chunk, which strings.Builder never
// rewrites, so views stay valid while the chunk fills; a full chunk is
// left to the values that view it.
type arena struct {
	chunk      strings.Builder
	used, size int // bytes written to chunk, and its capacity
	last       int // where the latest value starts in chunk
	grow       int // the size of the next chunk
}

// add copies p into the arena and returns it as a string.
//
//xic:hotpath
func (a *arena) add(p []byte) string {
	if len(p) > a.size-a.used {
		a.refill(len(p)) //xic:ignore hotalloc cold: one chunk per filled chunk, chunks doubling up to maxChunk
	}
	a.last = a.used
	return a.write(p)
}

// extend appends p to v, the arena's latest value, and returns the longer
// value. A value that outgrows its chunk moves to a chunk of at least
// twice its length, so building a value of n bytes from many runs copies
// O(n) bytes in all.
//
//xic:hotpath
func (a *arena) extend(v string, p []byte) string {
	if len(p) > a.size-a.used {
		a.move(v, len(p)) //xic:ignore hotalloc cold: the value moves to a chunk at least twice its length
	}
	return a.write(p)
}

// write appends p to the chunk, which has room for it, and returns the
// latest value.
//
//xic:hotpath
func (a *arena) write(p []byte) string {
	a.chunk.Write(p) //xic:ignore hotalloc the chunk has room: Write copies p without growing it
	a.used += len(p)
	return a.chunk.String()[a.last:a.used] //xic:ignore hotalloc String returns a view of the chunk, not a copy
}

// refill starts a chunk with room for at least n bytes.
func (a *arena) refill(n int) {
	a.grow = min(max(2*a.grow, minChunk), maxChunk)
	a.size = max(a.grow, n)
	a.chunk.Reset()
	a.chunk.Grow(a.size)
	a.used, a.last = 0, 0
}

// move copies the latest value v to a chunk with room for it to grow by
// at least n bytes, and makes the copy the latest value.
func (a *arena) move(v string, n int) {
	a.refill(2 * (len(v) + n))
	a.chunk.WriteString(v)
	a.used = len(v)
}

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
