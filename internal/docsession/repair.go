package docsession

// Cold path: turning a rejected op into a delta report with a minimal
// repair hint. These run only when an edit fails, with the constraint
// indexes still in the candidate (post-op) state, so the violated
// entries' counters and tuple sets name the would-be violations exactly;
// the caller rolls the indexes back afterwards.

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"xic/internal/constraint"
	"xic/internal/doccheck"
	"xic/internal/witness"
	"xic/internal/xmltree"
)

// reject maps a fast-path status to a RejectedEdit. For opConstraint the
// indexes are rolled back here after the report is built from them.
func (s *Session) reject(op *EditOp, st opStatus) *RejectedEdit {
	if st == opConstraint {
		rej := s.buildRejection(op, nil)
		s.rollback()
		return rej
	}
	n, _, _ := s.resolve(op.Path)
	switch st {
	case opBadPath:
		return s.structuralReject(op, "path %q does not resolve to an element", op.Path)
	case opNotElement:
		return s.structuralReject(op, "path %q names a text node", op.Path)
	case opUndeclaredAttr:
		label := op.Path
		if n != nil {
			label = n.Label
		}
		return s.structuralReject(op, "element type %q has no attribute %q", label, op.Attr)
	case opMissingAttr:
		return s.structuralReject(op, "element %s carries no attribute %q", op.Path, op.Attr)
	case opNotTextOnly:
		return s.structuralReject(op, "settext target %s has element children", op.Path)
	case opBadContent:
		return s.contentReject(op, n)
	}
	return s.structuralReject(op, "edit rejected")
}

// structuralReject is a single-violation rejection with no constraint
// attached (bad path, malformed subtree, conformance failure).
func (s *Session) structuralReject(op *EditOp, format string, args ...any) *RejectedEdit {
	return &RejectedEdit{Report: doccheck.Report{Elements: s.elems, Violations: []doccheck.Violation{{
		Path: op.Path, Offset: -1, Msg: fmt.Sprintf(format, args...),
	}}}}
}

// contentReject reports that the edit would break p's content model.
func (s *Session) contentReject(op *EditOp, p *xmltree.Node) *RejectedEdit {
	if p == nil {
		return s.structuralReject(op, "edit would not match the content model")
	}
	decl := s.d.Element(p.Label)
	if decl == nil {
		return s.structuralReject(op, "children of %s would not match the content model", p.Label)
	}
	return s.structuralReject(op, "children of %s would not match content model %s", p.Label, decl.Content)
}

// buildRejection collects the violations the in-flight op would introduce
// — one group per touched, violated constraint entry — plus the first
// applicable repair hint. sub is the inserted or deleted subtree, nil for
// attribute and text edits.
func (s *Session) buildRejection(op *EditOp, sub *xmltree.Node) *RejectedEdit {
	rej := &RejectedEdit{Report: doccheck.Report{Elements: s.elems}}
	for i := 0; i < s.ntouched; i++ {
		e := &s.idx.Entries[s.touched[i]]
		if !e.Violated() {
			continue
		}
		s.describeViolation(op, sub, e, rej)
	}
	if len(rej.Report.Violations) == 0 {
		// Defensive: the fast path saw a violation this builder did not
		// reconstruct; keep the rejection non-empty.
		rej.Report.Violations = []doccheck.Violation{{
			Path: op.Path, Offset: -1, Msg: "edit would violate an integrity constraint",
		}}
	}
	return rej
}

func (s *Session) describeViolation(op *EditOp, sub *xmltree.Node, e *doccheck.IndexEntry, rej *RejectedEdit) {
	switch x := e.Con.(type) {
	case constraint.Key:
		s.dupViolations(op, sub, e.Key, e.Con, rej)
	case constraint.ForeignKey:
		if e.Key.Dups() > 0 {
			s.dupViolations(op, sub, e.Key, e.Con, rej)
		}
		if e.Incl.Unmatched() > 0 || e.Incl.Lacking() > 0 {
			s.inclViolations(op, e.Incl, e.Con, rej)
		}
	case constraint.Inclusion:
		s.inclViolations(op, e.Incl, e.Con, rej)
	case constraint.NotKey:
		rej.Report.Violations = append(rej.Report.Violations, doccheck.Violation{
			Path: x.Type, Offset: -1, Constraint: e.Con,
			Msg: fmt.Sprintf("negated key requires two %s elements sharing %q, but the edit leaves all values distinct", x.Type, x.Attr),
		})
		s.hint(rej, &RepairHint{Msg: fmt.Sprintf("keep at least two %s elements sharing %q", x.Type, x.Attr)})
	case constraint.NotInclusion:
		rej.Report.Violations = append(rej.Report.Violations, doccheck.Violation{
			Path: x.Child, Offset: -1, Constraint: e.Con,
			Msg: fmt.Sprintf("negated inclusion requires some %s value of %s unmatched by %s, but the edit leaves all matched",
				x.ChildAttr, x.Child, x.Parent),
		})
		if op.Kind == OpSetAttr && op.Attr == x.ChildAttr {
			fresh := witness.FreshValue(e.Incl.HasParent)
			s.hint(rej, &RepairHint{
				Msg: fmt.Sprintf("set %s to %q, which no %s carries", op.Attr, fresh, x.Parent),
				Op:  &EditOp{Kind: OpSetAttr, Path: op.Path, Attr: op.Attr, Value: fresh},
			})
		}
	}
}

// dupViolations reports the candidate tuples this op added to the key
// index that now occur more than once. Deletes cannot create duplicates,
// so only SetAttr and InsertSubtree reach here.
func (s *Session) dupViolations(op *EditOp, sub *xmltree.Node, key *doccheck.KeyIndex, con constraint.Constraint, rej *RejectedEdit) {
	attrs := strings.Join(key.Attrs, ", ")
	switch op.Kind {
	case OpSetAttr:
		n, _, _ := s.resolve(op.Path)
		if n == nil || n.Label != key.Type {
			return
		}
		vals, ok := s.tupleOfWith(n, key.Attrs, op.Attr, op.Value)
		if !ok {
			return
		}
		if key.Count(doccheck.TupleKey(vals)) > 1 {
			rej.Report.Violations = append(rej.Report.Violations, doccheck.Violation{
				Path: op.Path, Offset: -1, Constraint: con,
				Msg: fmt.Sprintf("duplicate key: this %s would agree with an existing %s on (%s)", key.Type, key.Type, attrs),
			})
			if len(key.Attrs) == 1 {
				fresh := witness.FreshValue(key.Has)
				s.hint(rej, &RepairHint{
					Msg: fmt.Sprintf("set %s to the unused value %q", op.Attr, fresh),
					Op:  &EditOp{Kind: OpSetAttr, Path: op.Path, Attr: op.Attr, Value: fresh},
				})
			}
		}
	case OpInsertSubtree:
		walk(sub, func(n *xmltree.Node) bool {
			if n.Label != key.Type {
				return true
			}
			if vals, ok := s.tupleOf(n, key.Attrs); ok && key.Count(doccheck.TupleKey(vals)) > 1 {
				rej.Report.Violations = append(rej.Report.Violations, doccheck.Violation{
					Path: op.Path, Offset: -1, Constraint: con,
					Msg: fmt.Sprintf("duplicate key: an inserted %s agrees with an existing %s on (%s)", key.Type, key.Type, attrs),
				})
				if len(key.Attrs) == 1 {
					s.hint(rej, &RepairHint{
						Msg: fmt.Sprintf("give the inserted %s an unused (%s), e.g. %q",
							key.Type, attrs, witness.FreshValue(key.Has)),
					})
				}
			}
			return true
		})
	}
}

// inclViolations reports the child tuples the op leaves unmatched and any
// inserted child element lacking its tuple.
func (s *Session) inclViolations(op *EditOp, in *doccheck.InclusionIndex, con constraint.Constraint, rej *RejectedEdit) {
	attrs := strings.Join(in.ChildAttrs, ", ")
	if in.Lacking() > 0 && op.Kind == OpInsertSubtree {
		rej.Report.Violations = append(rej.Report.Violations, doccheck.Violation{
			Path: op.Path, Offset: -1, Constraint: con,
			Msg: fmt.Sprintf("inserted %s element lacks (%s) and cannot be matched", in.ChildType, attrs),
		})
	}
	missing := s.dangling(in)
	for _, m := range missing {
		rej.Report.Violations = append(rej.Report.Violations, doccheck.Violation{
			Path: in.ChildType, Line: m.pos.Line, Offset: m.pos.Off, Constraint: con,
			Msg: fmt.Sprintf("(%s) value of this %s would match no %s element", attrs, in.ChildType, in.ParentType),
		})
	}
	if len(missing) == 0 {
		return
	}
	if op.Kind == OpSetAttr && len(in.ChildAttrs) == 1 && op.Attr == in.ChildAttrs[0] {
		if p, ok := in.AnyParent(""); ok {
			s.hint(rej, &RepairHint{
				Msg: fmt.Sprintf("point %s at the existing %s value %q", op.Attr, in.ParentType, p),
				Op:  &EditOp{Kind: OpSetAttr, Path: op.Path, Attr: op.Attr, Value: p},
			})
			return
		}
	}
	s.hint(rej, &RepairHint{
		Msg: fmt.Sprintf("re-point the dangling (%s) references of %s at an existing %s or restore a matching %s",
			attrs, in.ChildType, in.ParentType, in.ParentType),
	})
}

// miss is one child tuple of an inclusion that no parent tuple matches,
// with its first recorded position.
type miss struct {
	t   string
	pos doccheck.SrcPos
}

// dangling lists the child tuples of in that the in-flight op leaves
// unmatched, by first position, then tuple. The document was valid
// before the op, so each was added on the child side or lost its last
// match on the parent side by the op: the undo log names them all, in
// O(edit) rather than O(index).
func (s *Session) dangling(in *doccheck.InclusionIndex) []miss {
	var missing []miss
	for i := 0; i < s.nundo; i++ {
		e := &s.undo[i]
		if e.incl != in || e.kind != undoChildAdd && e.kind != undoParentRemove {
			continue
		}
		if first, ok := in.Dangling(e.t); ok {
			missing = append(missing, miss{e.t, first})
		}
	}
	sort.Slice(missing, func(i, j int) bool {
		if missing[i].pos.Off != missing[j].pos.Off {
			return missing[i].pos.Off < missing[j].pos.Off
		}
		return missing[i].t < missing[j].t
	})
	// A tuple the log names twice has one first position, so its copies
	// sort next to each other.
	return slices.CompactFunc(missing, func(a, b miss) bool { return a.t == b.t })
}

// hint attaches h as the rejection's repair hint unless one is already
// set (the first applicable hint wins).
func (s *Session) hint(rej *RejectedEdit, h *RepairHint) {
	if rej.Repair == nil {
		rej.Repair = h
	}
}
