package docsession

import (
	"xic/internal/doccheck"
	"xic/internal/dtd"
	"xic/internal/xmlscan"
	"xic/internal/xmltree"
)

// OpKind names one of the four update operations of the session model
// (the insert/delete-subtree, replace-attribute and replace-text
// vocabulary of XML update languages).
type OpKind string

const (
	OpInsertSubtree OpKind = "insert"
	OpDeleteSubtree OpKind = "delete"
	OpSetAttr       OpKind = "setattr"
	OpSetText       OpKind = "settext"
)

// EditOp is one edit against the retained document. Path uses
// xmltree.Tree.Path notation (lib/grp[3]/item[0]); for InsertSubtree it
// names the parent element and Index the insertion slot in the parent's
// full child list, for the other kinds it names the target element.
type EditOp struct {
	Kind  OpKind `json:"kind"`
	Path  string `json:"path"`
	Index int    `json:"index,omitempty"` // insert: slot in the parent's child list
	XML   string `json:"xml,omitempty"`   // insert: the subtree as XML text
	Attr  string `json:"attr,omitempty"`  // setattr: attribute name
	Value string `json:"value,omitempty"` // setattr / settext: new value
}

// SetAttr returns the edit replacing one attribute value.
func SetAttr(path, attr, value string) EditOp {
	return EditOp{Kind: OpSetAttr, Path: path, Attr: attr, Value: value}
}

// SetText returns the edit replacing the element's text content; a value
// of XML white space only (xmlscan.IsSpace) removes the text node, as a
// parser drops such text.
func SetText(path, value string) EditOp {
	return EditOp{Kind: OpSetText, Path: path, Value: value}
}

// InsertSubtree returns the edit inserting the XML fragment as a new
// subtree under path at child slot index.
func InsertSubtree(path string, index int, xmlSrc string) EditOp {
	return EditOp{Kind: OpInsertSubtree, Path: path, Index: index, XML: xmlSrc}
}

// DeleteSubtree returns the edit deleting the subtree rooted at path.
func DeleteSubtree(path string) EditOp {
	return EditOp{Kind: OpDeleteSubtree, Path: path}
}

// ApplyResult is the outcome of one Apply batch.
type ApplyResult struct {
	// Applied counts the ops that committed (the whole batch, or the
	// prefix before the rejected one).
	Applied int `json:"applied"`
	// Elements is the document's element count after the applied prefix.
	Elements int `json:"elements"`
	// Rejected describes the first rejected op; nil when all applied.
	Rejected *RejectedEdit `json:"rejected,omitempty"`
}

// RejectedEdit describes one rejected op: the violations the edit would
// have introduced — a delta report; the rest of the document stays valid
// by the session invariant — and, when one exists, a minimal repair.
type RejectedEdit struct {
	Index  int             `json:"index"`
	Report doccheck.Report `json:"report"`
	Repair *RepairHint     `json:"repair,omitempty"`
}

// RepairHint is a minimal counter-edit for a rejected op: Op, when
// non-nil, is a concrete edit that would succeed in the rejected one's
// place.
type RepairHint struct {
	Msg string  `json:"msg"`
	Op  *EditOp `json:"op,omitempty"`
}

// Apply applies the edit script transactionally op by op: each op either
// commits in full or is rejected — leaving the document and every index
// untouched — and a rejection stops the batch. Accepted edits run in
// O(edit): the touched constraint indexes update by refcount, and a
// structural edit re-runs its parent's content model only from the
// edited slot until the run meets the old one.
func (s *Session) Apply(ops ...EditOp) ApplyResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	var res ApplyResult
	for i := range ops {
		if rej := s.applyOne(&ops[i]); rej != nil {
			rej.Index = i
			res.Rejected = rej
			break
		}
		res.Applied++
	}
	res.Elements = s.elems
	return res
}

func (s *Session) applyOne(op *EditOp) *RejectedEdit {
	switch op.Kind {
	case OpSetAttr:
		return s.applySetAttr(op)
	case OpSetText:
		return s.applySetText(op)
	case OpInsertSubtree:
		return s.applyInsert(op)
	case OpDeleteSubtree:
		return s.applyDelete(op)
	}
	return s.structuralReject(op, "unknown edit kind %q", string(op.Kind))
}

// opStatus is the verdict of a fast-path op attempt; everything but opOK
// routes to the cold rejection builder.
type opStatus uint8

const (
	opOK opStatus = iota
	opBadPath
	opNotElement
	opUndeclaredAttr
	opMissingAttr
	opNotTextOnly
	opBadContent
	opConstraint
)

// applySetAttr is the pinned point-edit path: steady-state SetAttr —
// resolve, retuple, refcount, verdict — allocates nothing.
//
//xic:hotpath
func (s *Session) applySetAttr(op *EditOp) *RejectedEdit {
	st := s.setAttrFast(op)
	if st == opOK {
		return nil
	}
	return s.reject(op, st) //xic:ignore hotalloc rejection is the cold path; accepted edits return above
}

//xic:hotpath
func (s *Session) setAttrFast(op *EditOp) opStatus {
	n, _, _ := s.resolve(op.Path)
	if n == nil {
		return opBadPath
	}
	if n.IsText() {
		return opNotElement
	}
	decl := s.d.Element(n.Label)
	if decl == nil || !decl.HasAttr(op.Attr) {
		return opUndeclaredAttr
	}
	old, ok := n.Attr(op.Attr)
	if !ok {
		return opMissingAttr // unreachable for conforming documents
	}
	if old == op.Value {
		return opOK // no-op
	}
	s.beginOp()
	for _, b := range s.plan.byLabel[n.Label] {
		if !hasAttr(b.attrs, op.Attr) {
			continue
		}
		oldVals, ok := s.tupleOf(n, b.attrs)
		if !ok {
			continue // defensive: conforming elements carry full tuples
		}
		oldT := doccheck.TupleKey(oldVals)
		newVals, _ := s.tupleOfWith(n, b.attrs, op.Attr, op.Value)
		newT := doccheck.TupleKey(newVals)
		s.touch(b.entry)
		switch b.role {
		case roleKey:
			pos := b.key.Remove(oldT)
			s.pushUndo(undoEntry{kind: undoKeyRemove, key: b.key, t: oldT, pos: pos})
			b.key.Add(newT, doccheck.SrcPos{})
			s.pushUndo(undoEntry{kind: undoKeyAdd, key: b.key, t: newT})
		case roleChild:
			pos := b.incl.RemoveChild(oldT)
			s.pushUndo(undoEntry{kind: undoChildRemove, incl: b.incl, t: oldT, pos: pos})
			b.incl.AddChild(newT, doccheck.SrcPos{})
			s.pushUndo(undoEntry{kind: undoChildAdd, incl: b.incl, t: newT})
		case roleParent:
			b.incl.RemoveParent(oldT)
			s.pushUndo(undoEntry{kind: undoParentRemove, incl: b.incl, t: oldT})
			b.incl.AddParent(newT)
			s.pushUndo(undoEntry{kind: undoParentAdd, incl: b.incl, t: newT})
		}
	}
	if s.anyViolated() {
		return opConstraint // indexes stay in candidate state for the report builder
	}
	n.SetAttr(op.Attr, op.Value)
	return opOK
}

// applySetText replaces the element's text content. The steady-state
// case — an element with one text child gets new non-whitespace text —
// touches neither automata nor indexes and allocates nothing.
//
//xic:hotpath
func (s *Session) applySetText(op *EditOp) *RejectedEdit {
	st := s.setTextFast(op)
	if st == opOK {
		return nil
	}
	return s.reject(op, st) //xic:ignore hotalloc rejection is the cold path; accepted edits return above
}

//xic:hotpath
func (s *Session) setTextFast(op *EditOp) opStatus {
	n, _, _ := s.resolve(op.Path)
	if n == nil {
		return opBadPath
	}
	if n.IsText() {
		return opNotElement
	}
	for _, c := range n.Children {
		if !c.IsText() {
			return opNotTextOnly
		}
	}
	ws := xmlscan.IsSpace(op.Value)
	if !ws && len(n.Children) == 1 {
		n.Children[0].Value = op.Value
		return opOK
	}
	if ws && len(n.Children) == 0 {
		return opOK // removing text that is not there
	}
	return s.setTextSlow(n, op.Value, ws) //xic:ignore hotalloc text-presence toggles re-run one content model; steady-state replacement returns above
}

// setTextSlow handles the text-presence toggle: the child sequence flips
// between [#PCDATA] and [], so the element's content model re-runs over
// at most one symbol. A text-only element is never wide.
func (s *Session) setTextSlow(n *xmltree.Node, value string, ws bool) opStatus {
	r := s.runFor(n.Label)
	r.Reset()
	if !ws {
		r.Step(dtd.TextSymbol)
	}
	if !r.Accepting() {
		return opBadContent
	}
	if ws {
		n.Children = n.Children[:0]
	} else {
		n.Children = append(n.Children[:0], xmltree.NewText(value))
	}
	return opOK
}

// applyInsert inserts a parsed, locally-conforming subtree and feeds its
// elements' tuples through the constraint indexes transactionally.
func (s *Session) applyInsert(op *EditOp) *RejectedEdit {
	parent, _, _ := s.resolve(op.Path)
	if parent == nil {
		return s.structuralReject(op, "path %q does not resolve to an element", op.Path)
	}
	if parent.IsText() {
		return s.structuralReject(op, "path %q names a text node", op.Path)
	}
	if op.Index < 0 || op.Index > len(parent.Children) {
		return s.structuralReject(op, "insert index %d out of range 0..%d", op.Index, len(parent.Children))
	}
	sub, err := xmltree.ParseString(op.XML)
	if err != nil {
		return s.structuralReject(op, "subtree XML: %v", err)
	}
	if rep := s.frag.Check(sub.Root); !rep.OK() {
		return s.structuralReject(op, "inserted subtree: %s", rep.Violations[0].Msg)
	}
	if !s.replay(parent, op.Index, true, sub.Root.Label) {
		return s.contentReject(op, parent)
	}
	s.beginOp()
	added := s.addSubtree(sub.Root)
	if s.anyViolated() {
		rej := s.buildRejection(op, sub.Root)
		s.rollback()
		return rej
	}
	parent.Children = append(parent.Children, nil)
	copy(parent.Children[op.Index+1:], parent.Children[op.Index:])
	parent.Children[op.Index] = sub.Root
	if k := s.wide[parent]; k != nil {
		k.insert(op.Index, sub.Root.Label, s.stage[:s.nstage*k.words])
	} else if len(parent.Children) > wideKids {
		s.indexKids(parent)
	}
	walk(sub.Root, func(e *xmltree.Node) bool {
		if len(e.Children) > wideKids {
			s.indexKids(e)
		}
		return true
	})
	s.elems += added
	return nil
}

// applyDelete removes the subtree at path, withdrawing its elements'
// tuples from the constraint indexes transactionally.
func (s *Session) applyDelete(op *EditOp) *RejectedEdit {
	n, parent, slot := s.resolve(op.Path)
	if n == nil {
		return s.structuralReject(op, "path %q does not resolve to an element", op.Path)
	}
	if parent == nil {
		return s.structuralReject(op, "cannot delete the root element")
	}
	if !s.replay(parent, slot, false, "") {
		return s.contentReject(op, parent)
	}
	s.beginOp()
	removed := s.removeSubtree(n)
	if s.anyViolated() {
		rej := s.buildRejection(op, n)
		s.rollback()
		return rej
	}
	// The removal can make two text siblings adjacent; merge them so the
	// tree stays in parse-normal form (one text node per run), matching
	// what a re-parse of the serialized document would produce.
	merge := mergesText(parent, slot)
	copy(parent.Children[slot:], parent.Children[slot+1:])
	parent.Children = parent.Children[:len(parent.Children)-1]
	if merge {
		parent.Children[slot-1].Value += parent.Children[slot].Value
		copy(parent.Children[slot:], parent.Children[slot+1:])
		parent.Children = parent.Children[:len(parent.Children)-1]
	}
	if k := s.wide[parent]; k != nil {
		if len(parent.Children) <= wideKids {
			delete(s.wide, parent)
		} else {
			k.remove(slot, n.Label)
			if merge {
				k.remove(slot, dtd.TextSymbol)
			}
			copy(k.sets[slot*k.words:], s.stage[:s.nstage*k.words])
		}
	}
	walk(n, func(e *xmltree.Node) bool {
		if len(e.Children) > wideKids {
			delete(s.wide, e)
		}
		return true
	})
	s.elems -= removed
	return nil
}

// addSubtree feeds every element of the subtree through its label's
// index bindings, recording undo entries, and returns the element count.
func (s *Session) addSubtree(sub *xmltree.Node) int {
	count := 0
	walk(sub, func(n *xmltree.Node) bool {
		count++
		for _, b := range s.plan.byLabel[n.Label] {
			vals, ok := s.tupleOf(n, b.attrs)
			if !ok {
				if b.role == roleChild {
					b.incl.AddLacking()
					s.pushUndo(undoEntry{kind: undoLackAdd, incl: b.incl})
					s.touch(b.entry)
				}
				continue
			}
			t := doccheck.TupleKey(vals)
			s.touch(b.entry)
			switch b.role {
			case roleKey:
				b.key.Add(t, doccheck.SrcPos{})
				s.pushUndo(undoEntry{kind: undoKeyAdd, key: b.key, t: t})
			case roleChild:
				b.incl.AddChild(t, doccheck.SrcPos{})
				s.pushUndo(undoEntry{kind: undoChildAdd, incl: b.incl, t: t})
			case roleParent:
				b.incl.AddParent(t)
				s.pushUndo(undoEntry{kind: undoParentAdd, incl: b.incl, t: t})
			}
		}
		return true
	})
	return count
}

// removeSubtree withdraws every element of the subtree from its label's
// index bindings, recording undo entries, and returns the element count.
func (s *Session) removeSubtree(sub *xmltree.Node) int {
	count := 0
	walk(sub, func(n *xmltree.Node) bool {
		count++
		for _, b := range s.plan.byLabel[n.Label] {
			vals, ok := s.tupleOf(n, b.attrs)
			if !ok {
				if b.role == roleChild {
					b.incl.RemoveLacking()
					s.pushUndo(undoEntry{kind: undoLackRemove, incl: b.incl})
					s.touch(b.entry)
				}
				continue
			}
			t := doccheck.TupleKey(vals)
			s.touch(b.entry)
			switch b.role {
			case roleKey:
				pos := b.key.Remove(t)
				s.pushUndo(undoEntry{kind: undoKeyRemove, key: b.key, t: t, pos: pos})
			case roleChild:
				pos := b.incl.RemoveChild(t)
				s.pushUndo(undoEntry{kind: undoChildRemove, incl: b.incl, t: t, pos: pos})
			case roleParent:
				b.incl.RemoveParent(t)
				s.pushUndo(undoEntry{kind: undoParentRemove, incl: b.incl, t: t})
			}
		}
		return true
	})
	return count
}

// ---- undo log ----------------------------------------------------------

const (
	undoKeyAdd    uint8 = iota + 1 // Add applied: rollback removes
	undoKeyRemove                  // Remove applied: rollback re-adds at pos
	undoChildAdd
	undoChildRemove
	undoParentAdd
	undoParentRemove
	undoLackAdd
	undoLackRemove
)

// undoEntry is one recorded index mutation of the in-flight op.
type undoEntry struct {
	kind uint8
	key  *doccheck.KeyIndex
	incl *doccheck.InclusionIndex
	t    string
	pos  doccheck.SrcPos
}

// beginOp resets the per-op transaction state.
//
//xic:hotpath
func (s *Session) beginOp() {
	s.nundo = 0
	s.ntouched = 0
	s.gen++
}

//xic:hotpath
func (s *Session) pushUndo(e undoEntry) {
	if s.nundo == len(s.undo) {
		s.growUndo() //xic:ignore hotalloc amortized growth: the undo buffer warms to the workload and is reused across edits
	}
	s.undo[s.nundo] = e
	s.nundo++
}

func (s *Session) growUndo() {
	next := make([]undoEntry, 2*len(s.undo))
	copy(next, s.undo)
	s.undo = next
}

// touch marks one constraint entry as affected by the in-flight op; the
// touched list is bounded by the constraint count, so the buffer never
// grows.
//
//xic:hotpath
func (s *Session) touch(entry int) {
	if s.entryMark[entry] == s.gen {
		return
	}
	s.entryMark[entry] = s.gen
	s.touched[s.ntouched] = int32(entry)
	s.ntouched++
}

// anyViolated scans the touched entries' verdict counters — O(touched),
// not O(index).
//
//xic:hotpath
func (s *Session) anyViolated() bool {
	for i := 0; i < s.ntouched; i++ {
		if s.idx.Entries[s.touched[i]].Violated() {
			return true
		}
	}
	return false
}

// rollback undoes the in-flight op's index mutations, newest first.
func (s *Session) rollback() {
	for i := s.nundo - 1; i >= 0; i-- {
		e := &s.undo[i]
		switch e.kind {
		case undoKeyAdd:
			e.key.Remove(e.t)
		case undoKeyRemove:
			e.key.Add(e.t, e.pos)
		case undoChildAdd:
			e.incl.RemoveChild(e.t)
		case undoChildRemove:
			e.incl.AddChild(e.t, e.pos)
		case undoParentAdd:
			e.incl.RemoveParent(e.t)
		case undoParentRemove:
			e.incl.AddParent(e.t)
		case undoLackAdd:
			e.incl.RemoveLacking()
		case undoLackRemove:
			e.incl.AddLacking()
		}
	}
	s.nundo = 0
}
