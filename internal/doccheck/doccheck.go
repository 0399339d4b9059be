// Package doccheck validates XML documents against a fixed DTD and
// constraint set in a single streaming pass. It is the serving-path
// counterpart of xmltree.Validator + constraint.SatisfiedAll for the
// paper's fixed-DTD setting (Corollaries 4.11 and 5.5): the schema is
// compiled once and many documents are checked against it, so the checker
// must not materialize each document as a tree.
//
// Memory is bounded by the open-element stack and the constraint hash
// indexes, never by the document: DTD conformance feeds each element's
// child-label sequence into the cached Glushkov automaton incrementally
// (one dtd.Run per open element), keys deduplicate through per-constraint
// value sets, and inclusion constraints collect child and parent value
// sets that are resolved at end-of-document — which is also what lets a
// foreign key reference an element that appears later in the document.
package doccheck

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"

	"xic/internal/constraint"
	"xic/internal/dtd"
	"xic/internal/xmlscan"
	"xic/internal/xmltree"
)

// DefaultMaxViolations bounds the violations a Report accumulates when the
// checker is not configured otherwise, so a pathological document cannot
// grow the report without bound.
const DefaultMaxViolations = 64

// Violation is one way the document fails the specification.
type Violation struct {
	// Path locates the offending element in the tree-path notation of
	// xmltree.Tree.Path (teachers/teacher[1]/teach[0]). For verdicts that
	// only exist at end-of-document (a negated key never witnessed, an
	// unmatched inclusion value) it is the element type the constraint
	// ranges over.
	Path string
	// Line is the 1-based source line of the reporting position; 0 for
	// end-of-document verdicts with no single position.
	Line int
	// Offset is the byte offset just past the token that reported it (the
	// element's start tag, for most violations); -1 for end-of-document
	// verdicts.
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

// Report is the outcome of one streaming validation pass.
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

// Checker is a compiled streaming validator for one specification. It
// holds no per-document state, so one Checker serves any number of
// concurrent Run calls; the automata come from the shared (frozen)
// xmltree.Validator cache, each fetched once per Checker.
type Checker struct {
	d     *dtd.DTD
	v     *xmltree.Validator
	sigma []constraint.Constraint

	// types are the DTD's element types, indexed by symbol; syms maps a
	// type name to its symbol.
	types []elemType
	syms  map[string]int32
	// collectors is the number of collectors a pass instantiates, one per
	// (constraint, observed type); elemType.cols indexes them.
	collectors int

	// MaxViolations bounds the report size; 0 means DefaultMaxViolations.
	MaxViolations int
}

// elemType is what one lookup of a start tag's name resolves to.
type elemType struct {
	label string
	decl  *dtd.Element
	auto  atomic.Pointer[dtd.Automaton] // fetched from the validator on first use
	cols  []int                         // the pass's collectors observing this type
}

// New returns a streaming checker over the DTD, its validator (whose
// automaton cache should be compiled via CompileAll) and a constraint set
// already validated against the DTD.
func New(d *dtd.DTD, v *xmltree.Validator, sigma []constraint.Constraint) *Checker {
	names := d.Types()
	c := &Checker{d: d, v: v, sigma: sigma, syms: make(map[string]int32, len(names)), types: make([]elemType, len(names))}
	for i, name := range names {
		c.syms[name] = int32(i)
		c.types[i].label = name
		c.types[i].decl = d.Element(name)
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

// automaton returns the content-model automaton of a declared type.
func (c *Checker) automaton(t *elemType) *dtd.Automaton {
	if a := t.auto.Load(); a != nil {
		return a
	}
	a := c.v.Automaton(t.label)
	t.auto.Store(a)
	return a
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

func (c *Checker) runPass(ctx context.Context, r io.Reader, retain bool, sink Sink) (*Report, *Indexes, error) {
	rn := &run{
		c:      c,
		rd:     xmltree.NewReader(r),
		sink:   sink,
		report: &Report{},
		max:    c.MaxViolations,
		done:   ctx.Done(),
	}
	if rn.max <= 0 {
		rn.max = DefaultMaxViolations
	}
	var idxs *Indexes
	rn.collectors, _, rn.finishers, idxs = c.newConstraintState(retain)
	if err := rn.loop(ctx); err != nil {
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

// run is the per-document state of one streaming pass.
type run struct {
	c      *Checker
	rd     *xmltree.Reader
	sink   Sink
	report *Report
	max    int

	frames []frame // frames[:depth] are live; the rest are reusable
	depth  int

	line int // position of the most recent token
	off  int64

	collectors []collector // indexed by elemType.cols
	finishers  []finisher

	done <-chan struct{}
}

// loop drives the token stream to EOF.
func (rn *run) loop(ctx context.Context) error {
	for tokens := 0; ; tokens++ {
		if tokens%1024 == 0 && rn.done != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("doccheck: validation aborted after %d elements: %w", rn.report.Elements, err)
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
			for _, f := range rn.finishers {
				f.finish(rn)
			}
			return nil
		}
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
	index := 0
	if rn.depth == 0 {
		if label != rn.c.d.Root {
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
	} else {
		rn.checkAttrs(t.decl, attrs)
		for _, i := range t.cols {
			rn.collectors[i].element(rn, attrs)
		}
	}
	if rn.sink != nil {
		rn.sink.Start(label, attrs)
	}
}

func (rn *run) end() {
	f := &rn.frames[rn.depth-1]
	if f.run != nil && !f.contentBad && !f.run.Accepting() {
		rn.violate(nil, rn.path(rn.depth),
			"children of %s do not match content model %s: sequence is incomplete",
			rn.path(rn.depth), f.decl.Content)
	}
	if rn.sink != nil {
		rn.sink.End()
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
	if f.run != nil && !f.contentBad && !f.run.Step(dtd.TextSymbol) {
		f.contentBad = true
		rn.violate(nil, rn.path(rn.depth),
			"children of %s do not match content model %s: unexpected text content",
			rn.path(rn.depth), f.decl.Content)
	}
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
		ar = rn.c.automaton(t).Reuse(spare)
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
	if len(rn.report.Violations) >= rn.max {
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

// violate appends a violation at the current stream position.
func (rn *run) violate(c constraint.Constraint, path, format string, args ...any) {
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
	if len(rn.report.Violations) >= rn.max {
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

// tupleVals fills dst with the values of the named attributes, reporting
// whether all are present. Nodes lacking a referenced attribute contribute
// no tuple, exactly as in constraint.Satisfied.
//
//xic:hotpath
func tupleVals(attrs []xmlscan.Attr, names []string, dst []string) bool {
	for i, name := range names {
		j := lookupAttr(attrs, name)
		if j < 0 {
			return false
		}
		dst[i] = string(attrs[j].Value) //xic:ignore hotalloc the indexes keep every tuple value they are handed: one string per indexed value
	}
	return true
}

// tupleKey encodes one attribute tuple as a comparable index key. The
// unary case — by far the common one for keys — is the raw value, with no
// allocation; wider tuples pay constraint.TupleKey's length-prefixed
// encoding. Every index in this file keys through here, so the two
// encodings never mix within one collector.
//
//xic:hotpath
func tupleKey(vals []string) string {
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
			reg(x.Type, &keyCol{c: x, idx: ki, vals: make([]string, len(x.Attrs))})
		case constraint.ForeignKey:
			k := x.Key()
			ki := NewKeyIndex(k.Type, k.Attrs)
			inc := NewInclusionIndex(x.Inclusion)
			idxs.Entries = append(idxs.Entries, IndexEntry{Con: con, Key: ki, Incl: inc})
			reg(k.Type, &keyCol{c: x, idx: ki, vals: make([]string, len(k.Attrs))})
			ic := newInclCol(x, inc, false)
			reg(x.Child, (*inclusionChild)(ic))
			reg(x.Parent, (*inclusionParent)(ic))
			finishers = append(finishers, ic)
		case constraint.Inclusion:
			inc := NewInclusionIndex(x)
			idxs.Entries = append(idxs.Entries, IndexEntry{Con: con, Incl: inc})
			ic := newInclCol(x, inc, false)
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
			ic := newInclCol(x, inc, true)
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
	c    constraint.Constraint
	idx  *KeyIndex
	vals []string
}

//xic:hotpath
func (k *keyCol) element(rn *run, attrs []xmlscan.Attr) {
	if !tupleVals(attrs, k.idx.Attrs, k.vals) {
		return // no tuple, cannot collide (constraint.Satisfied semantics)
	}
	t := tupleKey(k.vals)
	if first, dup := k.idx.Add(t, SrcPos{Line: rn.line, Off: rn.off}); dup {
		k.reportDup(rn, first) //xic:ignore hotalloc violation path: fires once per duplicate, steady state is valid documents
	}
}

// reportDup is the cold duplicate-key violation path.
func (k *keyCol) reportDup(rn *run, first SrcPos) {
	rn.violate(k.c, rn.path(rn.depth),
		"duplicate key: this %s agrees with the %s at line %d on (%s)",
		k.idx.Type, k.idx.Type, first.Line, strings.Join(k.idx.Attrs, ", "))
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
	j := lookupAttr(attrs, n.c.Attr)
	if j < 0 {
		return
	}
	v := string(attrs[j].Value) //xic:ignore hotalloc the index keeps every value it is handed
	if _, dup := n.idx.Add(v, SrcPos{Line: rn.line, Off: rn.off}); dup {
		n.sat = true
		if !n.retain {
			n.idx.seen = nil // satisfied; stop growing the index
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
// a parent that appears later in the document. Memory is one map entry
// per distinct tuple.
type inclCol struct {
	c             constraint.Constraint
	idx           *InclusionIndex
	neg           bool
	lacksReported bool
	vals          []string
}

func newInclCol(reported constraint.Constraint, idx *InclusionIndex, neg bool) *inclCol {
	n := len(idx.ChildAttrs)
	if len(idx.ParentAttrs) > n {
		n = len(idx.ParentAttrs)
	}
	return &inclCol{c: reported, idx: idx, neg: neg, vals: make([]string, n)}
}

// inclusionChild and inclusionParent are the two element-type views of one
// shared inclCol (child and parent types may even coincide).
type inclusionChild inclCol

//xic:hotpath
func (ic *inclusionChild) element(rn *run, attrs []xmlscan.Attr) {
	in := (*inclCol)(ic)
	vals := in.vals[:len(in.idx.ChildAttrs)]
	if !tupleVals(attrs, in.idx.ChildAttrs, vals) {
		in.idx.AddLacking()
		if !in.neg && !in.lacksReported {
			in.reportLacks(rn) //xic:ignore hotalloc violation path: fires at most once per document, steady state is valid documents
		}
		in.lacksReported = true
		return
	}
	in.idx.AddChild(tupleKey(vals), SrcPos{Line: rn.line, Off: rn.off})
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
	vals := in.vals[:len(in.idx.ParentAttrs)]
	if !tupleVals(attrs, in.idx.ParentAttrs, vals) {
		return // contributes no tuple
	}
	in.idx.AddParent(tupleKey(vals))
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
