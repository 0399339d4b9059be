// Package docsession implements incremental revalidation of retained
// documents: a Session ingests a document once through the doccheck
// pipeline, keeps the parsed tree, the per-constraint hash indexes
// (doccheck's KeyIndex/InclusionIndex, refcounted so removal works), and,
// for every parent with more than a few children, a kids index (kids.go):
// the children's slots by label and the content model's position set
// after each child. It then re-checks edits — InsertSubtree,
// DeleteSubtree, SetAttr, SetText — against only the touched scopes: the
// edited element's bindings in the constraint indexes and its parent's
// content model, resumed just before the edited slot. An accepted edit
// costs O(edit), not O(document) nor O(siblings), apart from the memmove
// that shifts a parent's child slice and slot lists.
//
// The session invariant is validity: Open fails on invalid documents
// (returning *InvalidDocumentError with the report), and every edit is
// transactional — an edit that would introduce a violation is rejected
// with a delta report and a minimal repair hint, leaving the document,
// the indexes, and the kids indexes exactly as they were.
package docsession

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"

	"xic/internal/constraint"
	"xic/internal/doccheck"
	"xic/internal/dtd"
	"xic/internal/xmltree"
)

// InvalidDocumentError reports that the ingested document is well-formed
// but not valid; a session only ever holds a valid document.
type InvalidDocumentError struct {
	Report *doccheck.Report
}

func (e *InvalidDocumentError) Error() string {
	return fmt.Sprintf("docsession: document is invalid: %v", e.Report.Err())
}

// role of one element label within one constraint's index.
type role uint8

const (
	roleKey    role = iota + 1 // tuple keys the element set (Key, FK key half, NotKey)
	roleChild                  // child (referencing) side of an inclusion
	roleParent                 // parent (referenced) side of an inclusion
)

// binding routes elements of one label to one index role. Bindings are
// built once at Open and never mutated.
//
// xic:frozen
type binding struct {
	entry int // index into Indexes.Entries
	role  role
	attrs []string
	key   *doccheck.KeyIndex
	incl  *doccheck.InclusionIndex
}

// plan is the per-session dispatch table: for each element label, the
// index roles its elements feed. Immutable after Open.
//
// xic:frozen
type plan struct {
	byLabel  map[string][]binding
	entries  int
	maxAttrs int
}

// Session is a retained document with incrementally-maintained
// validation state. All methods are safe for concurrent use; the
// zero-allocation steady state relies on the scratch buffers below, so
// one mutex serializes edits.
type Session struct {
	mu    sync.Mutex
	d     *dtd.DTD
	frag  *doccheck.Fragment // checks inserted subtrees
	v     *xmltree.Validator
	plan  *plan
	tree  *xmltree.Tree
	idx   *doccheck.Indexes
	wide  map[*xmltree.Node]*kids // exactly the parents with more than wideKids children
	elems int

	// Scratch buffers, reused across edits so the steady-state apply
	// path allocates nothing.
	vals      []string // tuple values
	undo      []undoEntry
	nundo     int
	touched   []int32 // entry indices touched by the current op
	ntouched  int
	entryMark []uint64
	gen       uint64
	stage     []uint64 // position sets staged by the last wide replay
	nstage    int
	runPool   map[string]*dtd.Run
}

// Open ingests one document from r in a single pass and returns a live
// session over it: the streaming checker fills the constraint indexes
// while a tree builder consumes the same events and indexes each wide
// parent's children at its end tag. ck and v must come from the same
// compiled specification; ck also checks the subtrees that edits insert.
// Invalid documents yield an *InvalidDocumentError carrying the full
// report; malformed ones the checker's parse error.
func Open(ctx context.Context, ck *doccheck.Checker, v *xmltree.Validator, r io.Reader) (*Session, error) {
	s := &Session{
		d:       v.DTD(),
		frag:    ck.NewFragment(),
		v:       v,
		wide:    make(map[*xmltree.Node]*kids),
		runPool: make(map[string]*dtd.Run),
	}
	sink := &openSink{s: s}
	rep, idxs, err := ck.RunRetainInto(ctx, r, sink)
	if err != nil {
		return nil, err
	}
	if !rep.OK() {
		return nil, &InvalidDocumentError{Report: rep}
	}
	s.tree = sink.Tree()
	s.idx = idxs
	s.elems = rep.Elements
	s.plan = buildPlan(idxs)
	s.vals = make([]string, s.plan.maxAttrs)
	s.touched = make([]int32, len(idxs.Entries))
	s.entryMark = make([]uint64, len(idxs.Entries))
	s.undo = make([]undoEntry, 16)
	return s, nil
}

// openSink is the tree-building consumer of Open's pass: it builds the
// document tree and, at each end tag, indexes the element's children when
// they are many.
type openSink struct {
	xmltree.Builder
	s *Session
}

func (o *openSink) End() {
	if n := o.Builder.End(); len(n.Children) > wideKids {
		o.s.indexKids(n)
	}
}

// buildPlan derives the label dispatch table from the index entries.
func buildPlan(idxs *doccheck.Indexes) *plan {
	p := &plan{byLabel: make(map[string][]binding), entries: len(idxs.Entries)}
	add := func(label string, b binding) {
		p.byLabel[label] = append(p.byLabel[label], b)
		if len(b.attrs) > p.maxAttrs {
			p.maxAttrs = len(b.attrs)
		}
	}
	for i, e := range idxs.Entries {
		switch x := e.Con.(type) {
		case constraint.Key:
			add(x.Type, binding{entry: i, role: roleKey, attrs: x.Attrs, key: e.Key})
		case constraint.NotKey:
			add(x.Type, binding{entry: i, role: roleKey, attrs: []string{x.Attr}, key: e.Key})
		case constraint.ForeignKey:
			k := x.Key()
			add(k.Type, binding{entry: i, role: roleKey, attrs: k.Attrs, key: e.Key})
			add(x.Child, binding{entry: i, role: roleChild, attrs: x.ChildAttrs, incl: e.Incl})
			add(x.Parent, binding{entry: i, role: roleParent, attrs: x.ParentAttrs, incl: e.Incl})
		case constraint.Inclusion:
			add(x.Child, binding{entry: i, role: roleChild, attrs: x.ChildAttrs, incl: e.Incl})
			add(x.Parent, binding{entry: i, role: roleParent, attrs: x.ParentAttrs, incl: e.Incl})
		case constraint.NotInclusion:
			inc := x.Inclusion()
			add(inc.Child, binding{entry: i, role: roleChild, attrs: inc.ChildAttrs, incl: e.Incl})
			add(inc.Parent, binding{entry: i, role: roleParent, attrs: inc.ParentAttrs, incl: e.Incl})
		}
	}
	return p
}

// runFor returns the session's reusable Run for the label's content
// model, nil for an undeclared label. Sessions are mutex-serialized, so
// one Run per label suffices.
func (s *Session) runFor(label string) *dtd.Run {
	if r, ok := s.runPool[label]; ok {
		return r
	}
	a := s.v.Automaton(label)
	if a == nil {
		return nil
	}
	r := a.Start()
	s.runPool[label] = r
	return r
}

// Elements returns the number of element nodes in the document.
func (s *Session) Elements() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.elems
}

// Document serializes the current document as indented XML.
func (s *Session) Document() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return xmltree.Serialize(s.tree)
}

// resolve walks a Tree.Path-notation path (lib/grp[3]/item[0]) from the
// root, returning the element it names, its parent, and its slot in the
// parent's child list (-1 for the root). A nil node means the path does
// not resolve. Allocation-free: segments are sliced, indices parsed by
// hand.
//
//xic:hotpath
func (s *Session) resolve(path string) (n, parent *xmltree.Node, slot int) {
	root := s.tree.Root
	seg, rest := nextSegment(path)
	if seg != root.Label || seg == "" {
		return nil, nil, 0
	}
	n, parent, slot = root, nil, -1
	for rest != "" {
		seg, rest = nextSegment(rest)
		label, idx, ok := splitIndex(seg)
		if !ok {
			return nil, nil, 0
		}
		child, childSlot := s.child(n, label, idx)
		if child == nil {
			return nil, nil, 0
		}
		parent, n, slot = n, child, childSlot
	}
	return n, parent, slot
}

// nextSegment splits off the first /-separated path segment.
//
//xic:hotpath
func nextSegment(path string) (seg, rest string) {
	for i := 0; i < len(path); i++ {
		if path[i] == '/' {
			return path[:i], path[i+1:]
		}
	}
	return path, ""
}

// splitIndex parses label[idx]. An index too large for an int does not
// parse: no element has that many siblings, and wrapping it would name
// another one.
//
//xic:hotpath
func splitIndex(seg string) (label string, idx int, ok bool) {
	if len(seg) < 4 || seg[len(seg)-1] != ']' {
		return "", 0, false
	}
	open := -1
	for i := len(seg) - 2; i >= 0; i-- {
		if seg[i] == '[' {
			open = i
			break
		}
	}
	if open <= 0 {
		return "", 0, false
	}
	idx = 0
	for i := open + 1; i < len(seg)-1; i++ {
		c := seg[i]
		if c < '0' || c > '9' {
			return "", 0, false
		}
		d := int(c - '0')
		if idx > (math.MaxInt-d)/10 {
			return "", 0, false
		}
		idx = idx*10 + d
	}
	if open+1 == len(seg)-1 {
		return "", 0, false
	}
	return seg[:open], idx, true
}

// child returns the idx-th child of n with the given label, and its slot
// in the full child list: a kids-index lookup under a wide parent, a scan
// under a narrow one.
//
//xic:hotpath
func (s *Session) child(n *xmltree.Node, label string, idx int) (*xmltree.Node, int) {
	if len(n.Children) <= wideKids {
		return findChild(n, label, idx)
	}
	k := s.wide[n]
	if k == nil {
		return findChild(n, label, idx) // unreachable: wide parents are indexed
	}
	g := k.find(label)
	if g < 0 || idx >= len(k.groups[g].slots) {
		return nil, 0
	}
	slot := int(k.groups[g].slots[idx])
	return n.Children[slot], slot
}

// findChild returns the idx-th child of n with the given label, and its
// slot in the full child list.
//
//xic:hotpath
func findChild(n *xmltree.Node, label string, idx int) (*xmltree.Node, int) {
	seen := 0
	for i, c := range n.Children {
		if c.Label != label {
			continue
		}
		if seen == idx {
			return c, i
		}
		seen++
	}
	return nil, 0
}

// tupleOf fills s.vals with n's values of attrs; ok is false when one is
// missing (impossible for conforming elements, since constraint
// attributes are validated against the DTD).
//
//xic:hotpath
func (s *Session) tupleOf(n *xmltree.Node, attrs []string) ([]string, bool) {
	vals := s.vals[:len(attrs)]
	for i, a := range attrs {
		v, ok := n.Attr(a)
		if !ok {
			return nil, false
		}
		vals[i] = v
	}
	return vals, true
}

// tupleOfWith is tupleOf with one attribute's value substituted — the
// candidate tuple of a SetAttr before the tree is touched.
//
//xic:hotpath
func (s *Session) tupleOfWith(n *xmltree.Node, attrs []string, attr, value string) ([]string, bool) {
	vals := s.vals[:len(attrs)]
	for i, a := range attrs {
		if a == attr {
			vals[i] = value
			continue
		}
		v, ok := n.Attr(a)
		if !ok {
			return nil, false
		}
		vals[i] = v
	}
	return vals, true
}

// hasAttr reports whether attrs contains a.
//
//xic:hotpath
func hasAttr(attrs []string, a string) bool {
	for _, x := range attrs {
		if x == a {
			return true
		}
	}
	return false
}
