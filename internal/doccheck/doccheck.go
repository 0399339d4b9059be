// Package doccheck decides whether a document conforms to a fixed DTD
// and satisfies a constraint set, for streams, trees, sessions and the
// decision procedures' witnesses alike. It serves the paper's fixed-DTD
// setting (Corollaries 4.11 and 5.5): the schema is compiled once and many
// documents are checked against it. xmltree.Validator.Validate and
// constraint.Satisfied decide the same questions independently, as the
// tests' oracle.
//
// Memory is bounded by the open-element stack and the constraint tuple
// tables, never by the document: DTD conformance feeds each element's
// child-label sequence into the cached Glushkov automaton incrementally
// (one dtd.Run per open element), keys deduplicate through per-constraint
// tuple tables (table.go), and inclusion constraints collect child and
// parent tuples that are resolved at end-of-document — which is also what lets a
// foreign key reference an element that appears later in the document.
package doccheck

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"unsafe"

	"xic/internal/constraint"
	"xic/internal/dtd"
	"xic/internal/xmlscan"
	"xic/internal/xmltree"
)

// MaxViolations bounds the violations a Report keeps, so a pathological
// document cannot grow the report without bound.
const MaxViolations = 64

// Violation is one way the document fails the specification.
type Violation struct {
	// Path locates the offending element in the tree-path notation of
	// xmltree.Tree.Path (teachers/teacher[1]/teach[0]). For verdicts that
	// only exist at end-of-document (a negated key never witnessed, an
	// unmatched inclusion value) it is the element type the constraint
	// ranges over.
	Path string
	// Line is the 1-based source line of the reporting position; 0 for
	// end-of-document verdicts with no single position and for trees.
	Line int
	// Offset is the byte offset just past the token that reported it (the
	// element's start tag, for most violations); for a tree, the reporting
	// node's position in document order; -1 for end-of-document verdicts.
	Offset int64
	// Constraint is the violated constraint; nil for DTD-conformance
	// violations.
	Constraint constraint.Constraint
	// Msg describes the violation.
	Msg string
}

func (v Violation) String() string {
	if v.Line > 0 {
		return fmt.Sprintf("line %d: %s: %s", v.Line, v.Path, v.Msg)
	}
	return fmt.Sprintf("%s: %s", v.Path, v.Msg)
}

// Report is the outcome of one validation pass.
type Report struct {
	// Violations lists conformance and constraint violations in document
	// order, with end-of-document verdicts last (ordered by the source
	// position that caused them).
	Violations []Violation
	// Truncated reports that the violation limit was reached and further
	// violations were dropped; the verdict is still exact.
	Truncated bool
	// Elements counts the element nodes seen.
	Elements int

	nonconforming bool // some conformance violation was found, kept or not
}

// OK reports whether the document conforms to the DTD and satisfies every
// constraint.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil for a valid document and an error naming the first
// violation otherwise.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	return fmt.Errorf("doccheck: %d violation(s); first: %s", len(r.Violations), r.Violations[0])
}

// Checker is a compiled validator for one specification. It holds no
// per-document state, so one Checker serves any number of concurrent
// passes.
type Checker struct {
	d     *dtd.DTD
	sigma []constraint.Constraint

	// types are the DTD's element types, indexed by symbol; syms maps a
	// type name to its symbol.
	types []elemType
	syms  map[string]int32
	// collectors is the number of collectors a pass instantiates, one per
	// (constraint, observed type); elemType.cols indexes them.
	collectors int
}

// elemType is what one lookup of a start tag's name resolves to.
type elemType struct {
	label string
	decl  *dtd.Element
	auto  *dtd.Automaton
	cols  []int // the pass's collectors observing this type
}

// New returns a checker over the DTD, the validator holding its compiled
// automata, and a constraint set already validated against the DTD.
func New(d *dtd.DTD, v *xmltree.Validator, sigma []constraint.Constraint) *Checker {
	names := d.Types()
	c := &Checker{d: d, sigma: sigma, syms: make(map[string]int32, len(names)), types: make([]elemType, len(names))}
	for i, name := range names {
		c.syms[name] = int32(i)
		c.types[i] = elemType{label: name, decl: d.Element(name), auto: v.Automaton(name)}
	}
	// Lay out, once, which collectors each type feeds; every pass builds
	// its collectors in this same order.
	_, observed, _, _ := c.newConstraintState(false)
	c.collectors = len(observed)
	for i, label := range observed {
		t := &c.types[c.syms[label]] // ValidateSet has checked that the type is declared
		t.cols = append(t.cols, i)
	}
	return c
}

// Run validates one document from r in a single pass. It returns a Report
// for well-formed documents — valid or not — and an error for documents
// that cannot be checked at all: XML syntax errors and model violations
// (multiple roots, attribute local-name collisions) surface as
// *xmltree.ParseError with line and offset, context cancellation as an
// error wrapping ctx.Err().
func (c *Checker) Run(ctx context.Context, r io.Reader) (*Report, error) {
	rep, _, err := c.runPass(ctx, r, false, nil)
	return rep, err
}

// RunRetain validates like Run but additionally returns the filled
// incremental constraint indexes (index.go), complete enough to support
// later removal: the drop-the-index-early optimization streaming mode
// applies once a negated key is decided is disabled.
func (c *Checker) RunRetain(ctx context.Context, r io.Reader) (*Report, *Indexes, error) {
	return c.runPass(ctx, r, true, nil)
}

// Sink consumes the events of a RunRetainInto pass next to the checker:
// each start tag with its element type, each non-blank text run, and each
// end tag. The byte slices are only valid during the call.
type Sink interface {
	Start(label string, attrs []xmlscan.Attr)
	Text(text []byte)
	End()
}

// RunRetainInto is RunRetain with a second consumer of the same pass.
// Document sessions (internal/docsession) open through here: the sink
// builds the tree and indexes the children of wide parents while the
// checker fills the constraint indexes the session keeps.
func (c *Checker) RunRetainInto(ctx context.Context, r io.Reader, sink Sink) (*Report, *Indexes, error) {
	return c.runPass(ctx, r, true, sink)
}

// RunTree checks an in-memory tree through Run's per-element handlers; a
// text node is one #PCDATA step, where a byte stream merges adjacent runs
// of character data. It returns the index in the constraint set of the
// first constraint the tree violates, or -1. A tree that does not conform
// to the DTD (a text node with attributes or children included) is an
// error, as are an empty tree and the end of ctx.
func (c *Checker) RunTree(ctx context.Context, t *xmltree.Tree) (violated int, err error) {
	if t == nil || t.Root == nil {
		return -1, errors.New("doccheck: empty tree")
	}
	rn := c.newRun(nil)
	rn.ctx, rn.done = ctx, ctx.Done()
	var idxs *Indexes
	rn.collectors, _, rn.finishers, idxs = c.newConstraintState(false)
	if err := rn.walk(t.Root); err != nil {
		return -1, err
	}
	if rn.report.nonconforming {
		for _, v := range rn.report.Violations {
			if v.Constraint == nil {
				return -1, fmt.Errorf("doccheck: tree does not conform to the DTD: %s", v)
			}
		}
		return -1, errors.New("doccheck: tree does not conform to the DTD; the violation report filled up first")
	}
	for i := range idxs.Entries {
		if idxs.Entries[i].Violated() {
			return i, nil
		}
	}
	return -1, nil
}

// RunFragment checks the subtree rooted at n for local conformance —
// declared element types, exact attribute sets, content models — as
// sessions check an inserted subtree: not the root's type, no constraint.
func (c *Checker) RunFragment(n *xmltree.Node) *Report {
	return c.NewFragment().Check(n)
}

// Fragment is RunFragment with its pass's buffers kept from one check to
// the next: a document session, whose edits its mutex serializes, checks
// every inserted subtree through one. It is not safe for concurrent use.
type Fragment struct {
	rn     run
	report Report
}

// NewFragment returns a reusable fragment check over the checker.
func (c *Checker) NewFragment() *Fragment {
	f := &Fragment{}
	f.rn = run{c: c, local: true, report: &f.report}
	return f
}

// Check is RunFragment. The report is f's own, valid until the next
// Check.
func (f *Fragment) Check(n *xmltree.Node) *Report {
	f.report = Report{Violations: f.report.Violations[:0]}
	f.rn.walk(n) // without a context the walk cannot fail; it closes every element it opens
	return &f.report
}

// newRun starts a pass over the document rd reads, or over a tree when
// rd is nil; its caller bounds it by a context, except for a fragment.
func (c *Checker) newRun(rd *xmltree.Reader) *run {
	return &run{c: c, rd: rd, report: &Report{}}
}

func (c *Checker) runPass(ctx context.Context, r io.Reader, retain bool, sink Sink) (*Report, *Indexes, error) {
	rn := c.newRun(xmltree.NewReader(r))
	rn.ctx, rn.done, rn.sink = ctx, ctx.Done(), sink
	var idxs *Indexes
	rn.collectors, _, rn.finishers, idxs = c.newConstraintState(retain)
	if err := rn.loop(); err != nil {
		return nil, nil, err
	}
	return rn.report, idxs, nil
}

// frame is the retained state of one open element: constant-size except
// for the per-type child counters that make violation paths precise,
// which hold only the child types actually seen.
type frame struct {
	label       string
	decl        *dtd.Element
	run         *dtd.Run       // nil when the element type is undeclared
	spare       *dtd.Run       // the stack slot's Run, reused by the next element here
	contentBad  bool           // content model already failed; stop stepping
	lastWasText bool           // coalesce adjacent character-data runs
	index       int            // index among same-type siblings
	kids        []kid          // children so far, one counter per type seen
	wide        map[string]int // position in kids by label, once kids is long
}

// kid counts an open element's children of one type; sym is -1 for a type
// the DTD does not declare, which label then tells apart.
type kid struct {
	sym   int32
	n     int
	label string
}

// linearKids is how many child types a frame searches linearly before it
// indexes them by label.
const linearKids = 8

// child counts one more child of the given type and returns its index
// among same-type siblings.
func (f *frame) child(sym int32, label string) int {
	i := -1
	if f.wide != nil {
		if j, ok := f.wide[label]; ok {
			i = j
		}
	} else {
		for j := range f.kids {
			if k := &f.kids[j]; k.sym == sym && (sym >= 0 || k.label == label) {
				i = j
				break
			}
		}
	}
	if i < 0 {
		i = len(f.kids)
		f.kids = append(f.kids, kid{sym: sym, label: label})
		if f.wide != nil {
			f.wide[label] = i
		} else if len(f.kids) > linearKids {
			f.wide = make(map[string]int, 2*len(f.kids))
			for j := range f.kids {
				f.wide[f.kids[j].label] = j
			}
		}
	}
	n := f.kids[i].n
	f.kids[i].n++
	return n
}

// run is the per-document state of one pass.
type run struct {
	c      *Checker
	rd     *xmltree.Reader // nil for a tree pass
	sink   Sink
	report *Report
	local  bool // a fragment: no root type, no constraints

	frames []frame // frames[:depth] are live; the rest are reusable
	depth  int

	line int // position of the most recent token or node
	off  int64

	collectors []collector // indexed by elemType.cols
	finishers  []finisher

	attrs   []xmlscan.Attr // a tree node's attributes (treeAttrs)
	cursors []cursor       // a tree pass's open elements (walk)
	buf     []byte         // the latest multi-attribute tuple (tuple)

	ctx  context.Context // nil for a fragment, which no context bounds
	done <-chan struct{} // ctx.Done(); nil when nothing can cancel the pass
}

// loop drives the token stream to EOF.
func (rn *run) loop() error {
	for tokens := 0; ; tokens++ {
		if tokens%1024 == 0 && rn.done != nil {
			if err := rn.canceled(); err != nil {
				return err
			}
		}
		k, err := rn.rd.Next()
		if err != nil {
			return err
		}
		rn.line, rn.off = rn.rd.Line(), rn.rd.Offset()
		switch k {
		case xmlscan.StartElement:
			rn.start()
		case xmlscan.EndElement:
			rn.end()
		case xmlscan.Text:
			rn.text()
		case xmlscan.EOF:
			rn.finish()
			return nil
		}
	}
}

// walk drives the tree rooted at root through the handlers in document
// order, keeping the open elements' child cursors on an explicit stack.
func (rn *run) walk(root *xmltree.Node) error {
	stack := rn.cursors[:0]
	for n, nodes := root, 0; n != nil; nodes++ {
		if nodes%1024 == 0 && rn.done != nil {
			if err := rn.canceled(); err != nil {
				return err
			}
		}
		rn.off = int64(nodes)
		if n.IsText() && len(stack) > 0 {
			rn.textNode(n)
		} else {
			rn.element(n)
			stack = append(stack, cursor{n: n})
		}
		// Advance to the next node in document order, closing the
		// elements whose children are done.
		n = nil
		for len(stack) > 0 && n == nil {
			top := &stack[len(stack)-1]
			if top.next < len(top.n.Children) {
				n = top.n.Children[top.next]
				top.next++
				continue
			}
			rn.close()
			stack[len(stack)-1] = cursor{} // a reused stack must not pin the tree
			stack = stack[:len(stack)-1]
		}
	}
	rn.cursors = stack
	rn.finish()
	return nil
}

// cursor is an open element of a tree pass with the index of its next
// child.
type cursor struct {
	n    *xmltree.Node
	next int
}

// canceled returns the error that aborts a pass whose context has ended.
func (rn *run) canceled() error {
	if err := rn.ctx.Err(); err != nil {
		return fmt.Errorf("doccheck: validation aborted after %d elements: %w", rn.report.Elements, err)
	}
	return nil
}

// finish emits the end-of-document verdicts.
func (rn *run) finish() {
	for _, f := range rn.finishers {
		f.finish(rn)
	}
}

// resolve looks an element name up once: its symbol and type, or -1, nil
// and a copy of the name for a type the DTD does not declare (the cold
// path of invalid documents).
func (rn *run) resolve(name []byte) (int32, *elemType, string) {
	if sym, ok := rn.c.syms[string(name)]; ok {
		t := &rn.c.types[sym]
		return sym, t, t.label
	}
	return -1, nil, string(name)
}

func (rn *run) start() {
	sym, t, label := rn.resolve(rn.rd.Name())
	attrs := rn.rd.Attrs()
	rn.open(sym, t, label, attrs)
	if rn.sink != nil {
		rn.sink.Start(label, attrs)
	}
}

// element is start for a tree's element node. An undeclared element's
// attributes go unread, as a start tag's do.
func (rn *run) element(n *xmltree.Node) {
	if sym, ok := rn.c.syms[n.Label]; ok {
		t := &rn.c.types[sym]
		rn.open(sym, t, n.Label, rn.treeAttrs(n))
		return
	}
	rn.open(-1, nil, n.Label, nil)
}

// open is the per-element handler both passes share: it steps the
// parent's content model, opens the element's frame, checks its type and
// attributes, and hands it to the collectors observing its type.
func (rn *run) open(sym int32, t *elemType, label string, attrs []xmlscan.Attr) {
	index := 0
	if rn.depth == 0 {
		if !rn.local && label != rn.c.d.Root {
			rn.violate(nil, label, "root is %q, DTD requires %q", label, rn.c.d.Root)
		}
	} else {
		parent := &rn.frames[rn.depth-1]
		index = parent.child(sym, label)
		parent.lastWasText = false
		if parent.run != nil && !parent.contentBad && !parent.run.Step(label) {
			parent.contentBad = true
			rn.violate(nil, rn.path(rn.depth),
				"children of %s do not match content model %s: %q cannot follow",
				rn.path(rn.depth), parent.decl.Content, label)
		}
	}
	rn.push(t, label, index)
	rn.report.Elements++
	if t == nil {
		rn.violate(nil, rn.path(rn.depth), "element type %q is not declared", label)
		return
	}
	rn.checkAttrs(t.decl, attrs)
	if rn.local {
		return
	}
	for _, i := range t.cols {
		rn.collectors[i].element(rn, attrs)
	}
}

func (rn *run) end() {
	rn.close()
	if rn.sink != nil {
		rn.sink.End()
	}
}

// close is the end-of-element handler both passes share.
func (rn *run) close() {
	f := &rn.frames[rn.depth-1]
	if f.run != nil && !f.contentBad && !f.run.Accepting() {
		rn.violate(nil, rn.path(rn.depth),
			"children of %s do not match content model %s: sequence is incomplete",
			rn.path(rn.depth), f.decl.Content)
	}
	rn.depth--
}

func (rn *run) text() {
	f := &rn.frames[rn.depth-1]
	if rn.sink != nil {
		rn.sink.Text(rn.rd.Text())
	}
	if f.lastWasText {
		return // adjacent runs form one text node
	}
	f.lastWasText = true
	rn.stepText(f)
}

// textNode is text for a tree's text node: one #PCDATA step of its own.
func (rn *run) textNode(n *xmltree.Node) {
	if len(n.Children) > 0 || len(n.Attrs()) > 0 {
		rn.violate(nil, rn.path(rn.depth), "text node under %s has children or attributes", rn.path(rn.depth))
	}
	rn.stepText(&rn.frames[rn.depth-1])
}

// stepText steps the open element's content model over character data.
func (rn *run) stepText(f *frame) {
	if f.run != nil && !f.contentBad && !f.run.Step(dtd.TextSymbol) {
		f.contentBad = true
		rn.violate(nil, rn.path(rn.depth),
			"children of %s do not match content model %s: unexpected text content",
			rn.path(rn.depth), f.decl.Content)
	}
}

// treeAttrs presents a tree node's attributes as a start tag's, in the
// node's order: sorted by name. The byte slices alias the node's strings;
// like a start tag's, they are only read.
func (rn *run) treeAttrs(n *xmltree.Node) []xmlscan.Attr {
	attrs := rn.attrs[:0]
	for _, a := range n.Attrs() {
		attrs = append(attrs, attrOf(a.Name, a.Value))
	}
	rn.attrs = attrs
	return attrs
}

// attrOf is the attribute name=value as a start tag's, without copying.
func attrOf(name, value string) xmlscan.Attr {
	local := unsafe.Slice(unsafe.StringData(name), len(name))
	return xmlscan.Attr{Name: local, Local: local, Value: unsafe.Slice(unsafe.StringData(value), len(value))}
}

// push opens a frame for an element of type t (nil when undeclared),
// reusing the stack slot left behind by a previous sibling subtree: its
// Run, rebound to t's automaton, and its child counters.
func (rn *run) push(t *elemType, label string, index int) {
	if rn.depth == len(rn.frames) {
		rn.frames = append(rn.frames, frame{})
	}
	f := &rn.frames[rn.depth]
	spare := f.spare
	var decl *dtd.Element
	var ar *dtd.Run
	if t != nil {
		decl = t.decl
		ar = t.auto.Reuse(spare)
		spare = ar
	}
	*f = frame{label: label, decl: decl, run: ar, spare: spare, index: index, kids: f.kids[:0]}
	rn.depth++
}

// checkAttrs verifies the element carries exactly the declared attribute
// set R(τ): every declared attribute present, no undeclared ones.
func (rn *run) checkAttrs(decl *dtd.Element, attrs []xmlscan.Attr) {
	for _, want := range decl.Attrs {
		if lookupAttr(attrs, want) < 0 {
			rn.violate(nil, rn.path(rn.depth), "element %s lacks required attribute %q", rn.path(rn.depth), want)
		}
	}
	for _, a := range attrs {
		if !declares(decl, a.Local) {
			rn.violate(nil, rn.path(rn.depth), "element %s has undeclared attribute %q", rn.path(rn.depth), a.Local)
		}
	}
}

// path renders the element path of frames[:depth] in xmltree.Tree.Path
// notation; it is only materialized when a violation needs it, and not at
// all once the report is full.
func (rn *run) path(depth int) string {
	if len(rn.report.Violations) >= MaxViolations {
		return ""
	}
	var b strings.Builder
	for i := 0; i < depth; i++ {
		f := &rn.frames[i]
		if i == 0 {
			b.WriteString(f.label)
			continue
		}
		fmt.Fprintf(&b, "/%s[%d]", f.label, f.index)
	}
	return b.String()
}

// violate appends a violation at the current position; a nil constraint
// marks a conformance violation.
func (rn *run) violate(c constraint.Constraint, path, format string, args ...any) {
	if c == nil {
		rn.report.nonconforming = true
	}
	if rn.full() {
		return
	}
	rn.add(Violation{Path: path, Line: rn.line, Offset: rn.off, Constraint: c, Msg: fmt.Sprintf(format, args...)})
}

// add appends a violation, enforcing the report bound.
func (rn *run) add(v Violation) {
	if rn.full() {
		return
	}
	rn.report.Violations = append(rn.report.Violations, v)
}

// full reports whether the report has reached its bound, marking it
// truncated: from then on violations are dropped unformatted.
func (rn *run) full() bool {
	if len(rn.report.Violations) >= MaxViolations {
		rn.report.Truncated = true
		return true
	}
	return false
}

// declares reports whether the element type declares the attribute.
//
//xic:hotpath
func declares(decl *dtd.Element, name []byte) bool {
	for _, a := range decl.Attrs {
		if sameName(name, a) {
			return true
		}
	}
	return false
}

// sameName compares a scanned name with a string without converting
// either.
//
//xic:hotpath
func sameName(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		if b[i] != s[i] {
			return false
		}
	}
	return true
}

// lookupAttr returns the index of the attribute with the given local name,
// or -1.
//
//xic:hotpath
func lookupAttr(attrs []xmlscan.Attr, name string) int {
	for i := range attrs {
		if sameName(attrs[i].Local, name) {
			return i
		}
	}
	return -1
}

// tuple returns the element's tuple over the named attributes in
// TupleKey's encoding, without copying a value: a unary tuple is a view of
// the attribute's value, a wider one is encoded into the run's reused
// buffer. The view is valid until the next call and until the attributes
// change; the indexes copy what they keep. ok is false when an attribute
// is missing: such an element contributes no tuple, exactly as in
// constraint.Satisfied.
//
//xic:hotpath
func (rn *run) tuple(attrs []xmlscan.Attr, names []string) (t string, ok bool) {
	if len(names) == 1 {
		j := lookupAttr(attrs, names[0])
		if j < 0 {
			return "", false
		}
		return view(attrs[j].Value), true
	}
	w := 0
	for _, name := range names {
		j := lookupAttr(attrs, name)
		if j < 0 {
			return "", false
		}
		v := attrs[j].Value
		if need := w + maxLenPrefix + len(v); need > len(rn.buf) {
			rn.growBuf(need) //xic:ignore hotalloc cold: the buffer doubles until it holds the widest tuple
		}
		w = putLenPrefix(rn.buf, w, len(v))
		w += copy(rn.buf[w:], v)
	}
	return view(rn.buf[:w]), true
}

// maxLenPrefix bounds a length prefix: 19 decimal digits and the colon.
const maxLenPrefix = 20

// putLenPrefix writes constraint.TupleKey's prefix for a value of n
// bytes, n in decimal and a colon, at b[w:] and returns where it ends.
//
//xic:hotpath
func putLenPrefix(b []byte, w, n int) int {
	var digits [maxLenPrefix]byte
	i := len(digits)
	for {
		i--
		digits[i] = byte('0' + n%10)
		if n /= 10; n == 0 {
			break
		}
	}
	w += copy(b[w:], digits[i:])
	b[w] = ':'
	return w + 1
}

// growBuf makes the tuple buffer at least n bytes long, keeping its
// contents.
func (rn *run) growBuf(n int) {
	b := make([]byte, max(n, 2*len(rn.buf), 64))
	copy(b, rn.buf)
	rn.buf = b
}

// TupleKey encodes one attribute tuple as a comparable index key. The
// unary case — by far the common one for keys — is the raw value, with no
// allocation; wider tuples pay constraint.TupleKey's length-prefixed
// encoding. A document session keys its index edits through here, and the
// pass's own tuple writes the same bytes, so the two never mix within one
// index.
//
//xic:hotpath
func TupleKey(vals []string) string {
	if len(vals) == 1 {
		return vals[0]
	}
	return constraint.TupleKey(vals) //xic:ignore hotalloc multi-attribute tuples pay one encode per element; the common unary case takes the zero-alloc path above
}

// ---- constraint state --------------------------------------------------

// collector receives every element of one type during the pass.
type collector interface {
	element(rn *run, attrs []xmlscan.Attr)
}

// finisher emits the verdicts that only exist at end-of-document.
type finisher interface {
	finish(rn *run)
}

// newConstraintState instantiates fresh per-document collectors for the
// compiled constraint set, each with the element type it observes, in an
// order fixed by the constraint set (New lays out elemType.cols by it).
// The collectors are streaming views over the incremental indexes of
// index.go; retain disables the drop-the-index-early optimization so the
// returned Indexes stay complete and support removal.
func (c *Checker) newConstraintState(retain bool) (cols []collector, observed []string, finishers []finisher, idxs *Indexes) {
	cols = make([]collector, 0, c.collectors)
	observed = make([]string, 0, c.collectors)
	idxs = &Indexes{}
	reg := func(label string, col collector) {
		cols = append(cols, col)
		observed = append(observed, label)
	}
	for _, con := range c.sigma {
		switch x := con.(type) {
		case constraint.Key:
			ki := NewKeyIndex(x.Type, x.Attrs)
			idxs.Entries = append(idxs.Entries, IndexEntry{Con: con, Key: ki})
			reg(x.Type, &keyCol{c: x, idx: ki})
		case constraint.ForeignKey:
			k := x.Key()
			ki := NewKeyIndex(k.Type, k.Attrs)
			inc := NewInclusionIndex(x.Inclusion)
			idxs.Entries = append(idxs.Entries, IndexEntry{Con: con, Key: ki, Incl: inc})
			reg(k.Type, &keyCol{c: x, idx: ki})
			ic := &inclCol{c: x, idx: inc}
			reg(x.Child, (*inclusionChild)(ic))
			reg(x.Parent, (*inclusionParent)(ic))
			finishers = append(finishers, ic)
		case constraint.Inclusion:
			inc := NewInclusionIndex(x)
			idxs.Entries = append(idxs.Entries, IndexEntry{Con: con, Incl: inc})
			ic := &inclCol{c: x, idx: inc}
			reg(x.Child, (*inclusionChild)(ic))
			reg(x.Parent, (*inclusionParent)(ic))
			finishers = append(finishers, ic)
		case constraint.NotKey:
			ki := NewKeyIndex(x.Type, []string{x.Attr})
			idxs.Entries = append(idxs.Entries, IndexEntry{Con: con, Key: ki})
			nk := &notKeyCol{c: x, idx: ki, retain: retain}
			reg(x.Type, nk)
			finishers = append(finishers, nk)
		case constraint.NotInclusion:
			inc := NewInclusionIndex(x.Inclusion())
			idxs.Entries = append(idxs.Entries, IndexEntry{Con: con, Incl: inc})
			ic := &inclCol{c: x, idx: inc, neg: true}
			reg(inc.ChildType, (*inclusionChild)(ic))
			reg(inc.ParentType, (*inclusionParent)(ic))
			finishers = append(finishers, ic)
		}
	}
	return cols, observed, finishers, idxs
}

// keyCol enforces τ[X] → τ (for keys and the key half of foreign keys) as
// a streaming view over a KeyIndex: a repeated tuple is a violation at
// the repeating element.
type keyCol struct {
	c   constraint.Constraint
	idx *KeyIndex
}

//xic:hotpath
func (k *keyCol) element(rn *run, attrs []xmlscan.Attr) {
	t, ok := rn.tuple(attrs, k.idx.Attrs)
	if !ok {
		return // no tuple, cannot collide (constraint.Satisfied semantics)
	}
	if first, dup := k.idx.Add(t, SrcPos{Line: rn.line, Off: rn.off}); dup {
		k.reportDup(rn, first) //xic:ignore hotalloc violation path: fires once per duplicate, steady state is valid documents
	}
}

// reportDup is the cold duplicate-key violation path.
func (k *keyCol) reportDup(rn *run, first SrcPos) {
	at := "an earlier " + k.idx.Type // a tree has no lines
	if first.Line > 0 {
		at = fmt.Sprintf("the %s at line %d", k.idx.Type, first.Line)
	}
	rn.violate(k.c, rn.path(rn.depth), "duplicate key: this %s agrees with %s on (%s)",
		k.idx.Type, at, strings.Join(k.idx.Attrs, ", "))
}

// notKeyCol enforces the negation τ.l ↛ τ over a KeyIndex: some
// duplicate must exist by end-of-document. In streaming mode the index
// is dropped as soon as a duplicate is witnessed — the verdict can no
// longer change; retained mode keeps it complete so removals work.
type notKeyCol struct {
	c      constraint.NotKey
	idx    *KeyIndex
	sat    bool
	retain bool
}

//xic:hotpath
func (n *notKeyCol) element(rn *run, attrs []xmlscan.Attr) {
	if n.sat && !n.retain {
		return // satisfied; index already dropped
	}
	v, ok := rn.tuple(attrs, n.idx.Attrs)
	if !ok {
		return
	}
	if _, dup := n.idx.Add(v, SrcPos{Line: rn.line, Off: rn.off}); dup {
		n.sat = true
		if !n.retain {
			n.idx.tab = table{} // satisfied; stop growing the index
		}
	}
}

func (n *notKeyCol) finish(rn *run) {
	if n.sat || n.idx.Dups() > 0 {
		return
	}
	rn.add(Violation{Path: n.c.Type, Line: 0, Offset: -1, Constraint: n.c,
		Msg: fmt.Sprintf("negated key requires two %s elements sharing %q, but all values are distinct", n.c.Type, n.c.Attr)})
}

// inclCol enforces τ1[X] ⊆ τ2[Y] (or its negation) over an
// InclusionIndex: child tuples pend until end-of-document, when they are
// resolved against the parent tuple set — so a foreign key may reference
// a parent that appears later in the document. Memory is one table entry
// per distinct tuple.
type inclCol struct {
	c             constraint.Constraint
	idx           *InclusionIndex
	neg           bool
	lacksReported bool
}

// inclusionChild and inclusionParent are the two element-type views of one
// shared inclCol (child and parent types may even coincide).
type inclusionChild inclCol

//xic:hotpath
func (ic *inclusionChild) element(rn *run, attrs []xmlscan.Attr) {
	in := (*inclCol)(ic)
	t, ok := rn.tuple(attrs, in.idx.ChildAttrs)
	if !ok {
		in.idx.AddLacking()
		if !in.neg && !in.lacksReported {
			in.reportLacks(rn) //xic:ignore hotalloc violation path: fires at most once per document, steady state is valid documents
		}
		in.lacksReported = true
		return
	}
	in.idx.AddChild(t, SrcPos{Line: rn.line, Off: rn.off})
}

// reportLacks is the cold missing-tuple violation path.
func (in *inclCol) reportLacks(rn *run) {
	rn.violate(in.c, rn.path(rn.depth),
		"%s element lacks (%s) and cannot be matched", in.idx.ChildType, strings.Join(in.idx.ChildAttrs, ", "))
}

type inclusionParent inclCol

//xic:hotpath
func (ip *inclusionParent) element(rn *run, attrs []xmlscan.Attr) {
	in := (*inclCol)(ip)
	t, ok := rn.tuple(attrs, in.idx.ParentAttrs)
	if !ok {
		return // contributes no tuple
	}
	in.idx.AddParent(t)
}

func (in *inclCol) finish(rn *run) {
	if in.neg {
		if in.idx.Lacking() > 0 || in.idx.Unmatched() > 0 {
			return // some reference dangles (or lacks a tuple), negation holds
		}
		rn.add(Violation{Path: in.idx.ChildType, Line: 0, Offset: -1, Constraint: in.c,
			Msg: fmt.Sprintf("negated inclusion requires some %s value of %s unmatched by %s, but all are matched",
				strings.Join(in.idx.ChildAttrs, ", "), in.idx.ChildType, in.idx.ParentType)})
		return
	}
	var missing []SrcPos
	in.idx.EachUnmatched(func(t string, first SrcPos) {
		missing = append(missing, first)
	})
	sort.Slice(missing, func(i, j int) bool { return missing[i].Off < missing[j].Off })
	for _, pos := range missing {
		rn.add(Violation{Path: in.idx.ChildType, Line: pos.Line, Offset: pos.Off, Constraint: in.c,
			Msg: fmt.Sprintf("(%s) value of this %s matches no %s element",
				strings.Join(in.idx.ChildAttrs, ", "), in.idx.ChildType, in.idx.ParentType)})
	}
}
