package doccheck

import (
	"strings"

	"xic/internal/constraint"
)

// This file holds the incremental constraint indexes. The streaming
// collectors in doccheck.go are thin views over these types, and a
// retained-document session (internal/docsession) keeps the same indexes
// alive after the pass and mutates them as the document is edited: every
// Add has a matching Remove, and the derived verdict counters (duplicate
// occurrences, lacking children, unmatched tuples) are maintained
// incrementally so a constraint's status after an edit is O(1) to read.

// SrcPos is a compact source position for index entries: keeping only
// numbers (not paths) in the tuple tables keeps their memory at a few
// words per distinct value. Entries added after the initial pass (by a
// document session) carry the zero SrcPos.
type SrcPos struct {
	Line int
	Off  int64
}

// KeyIndex is the incremental occurrence index of one attribute tuple
// projection τ[X]: a refcount per distinct tuple plus the running number
// of duplicated occurrences. A Key constraint (and the key half of a
// foreign key) is satisfied iff Dups() == 0; a negated key is satisfied
// iff Dups() > 0.
type KeyIndex struct {
	Type  string
	Attrs []string
	tab   table // occurrences in entry.a
	extra int   // occurrences beyond the first, summed over tuples
}

// NewKeyIndex returns an empty index over τ[X].
func NewKeyIndex(typ string, attrs []string) *KeyIndex {
	return &KeyIndex{Type: typ, Attrs: attrs}
}

// Add records one occurrence of tuple t at pos. It returns the position
// of the first recorded occurrence and whether this occurrence duplicates
// an earlier one. The index copies t's bytes, so t may be a view of a
// buffer the caller reuses.
//
//xic:hotpath
func (k *KeyIndex) Add(t string, pos SrcPos) (SrcPos, bool) {
	e := k.tab.put(t)
	e.a++
	if e.a == 1 {
		e.first = pos
		return pos, false
	}
	k.extra++
	return e.first, true
}

// Remove removes one occurrence of tuple t, returning the first recorded
// position (so a transactional caller can re-Add on rollback). Removing a
// tuple that was never added is a no-op.
//
//xic:hotpath
func (k *KeyIndex) Remove(t string) SrcPos {
	_, at, i := k.tab.find(t)
	if i < 0 {
		return SrcPos{}
	}
	e := &k.tab.entries[i]
	first := e.first
	if e.a--; e.a > 0 {
		k.extra--
		return first
	}
	k.tab.free(at, i)
	return first
}

// Count returns the occurrence refcount of tuple t.
//
//xic:hotpath
func (k *KeyIndex) Count(t string) int {
	if e := k.tab.get(t); e != nil {
		return e.a
	}
	return 0
}

// Dups returns the number of occurrences beyond the first, summed over
// all tuples; 0 means every tuple is distinct.
//
//xic:hotpath
func (k *KeyIndex) Dups() int { return k.extra }

// Len returns the number of distinct tuples in the index.
func (k *KeyIndex) Len() int { return k.tab.live }

// Has reports whether tuple t is present.
//
//xic:hotpath
func (k *KeyIndex) Has(t string) bool { return k.tab.get(t) != nil }

// InclusionIndex is the incremental two-sided index of one inclusion
// τ1[X] ⊆ τ2[Y] (or its negation): refcounted child and parent tuples
// plus two derived counters — Lacking, the number of τ1 elements carrying
// no X-tuple at all, and Unmatched, the number of distinct child tuples
// with no parent occurrence. The inclusion is satisfied iff both counters
// are zero; its negation is satisfied iff either is positive. One table
// entry holds a tuple's child count, parent count and first child
// position, so each insert is one probe.
type InclusionIndex struct {
	ChildType   string
	ParentType  string
	ChildAttrs  []string
	ParentAttrs []string

	tab       table // child occurrences in entry.a, parent ones in entry.b
	lacking   int
	unmatched int
}

// NewInclusionIndex returns an empty index for the inclusion.
func NewInclusionIndex(inc constraint.Inclusion) *InclusionIndex {
	return &InclusionIndex{
		ChildType:   inc.Child,
		ParentType:  inc.Parent,
		ChildAttrs:  inc.ChildAttrs,
		ParentAttrs: inc.ParentAttrs,
	}
}

// AddChild records one child occurrence of tuple t at pos. Like
// KeyIndex.Add, it copies t's bytes.
//
//xic:hotpath
func (in *InclusionIndex) AddChild(t string, pos SrcPos) {
	e := in.tab.put(t)
	if e.a == 0 {
		e.first = pos
		if e.b == 0 {
			in.unmatched++
		}
	}
	e.a++
}

// RemoveChild removes one child occurrence of tuple t, returning the
// first recorded position (for transactional rollback).
//
//xic:hotpath
func (in *InclusionIndex) RemoveChild(t string) SrcPos {
	_, at, i := in.tab.find(t)
	if i < 0 || in.tab.entries[i].a == 0 {
		return SrcPos{}
	}
	e := &in.tab.entries[i]
	first := e.first
	if e.a--; e.a == 0 && e.b == 0 {
		in.unmatched--
		in.tab.free(at, i)
	}
	return first
}

// AddParent records one parent occurrence of tuple t.
//
//xic:hotpath
func (in *InclusionIndex) AddParent(t string) {
	e := in.tab.put(t)
	if e.b == 0 && e.a > 0 {
		in.unmatched--
	}
	e.b++
}

// RemoveParent removes one parent occurrence of tuple t.
//
//xic:hotpath
func (in *InclusionIndex) RemoveParent(t string) {
	_, at, i := in.tab.find(t)
	if i < 0 || in.tab.entries[i].b == 0 {
		return
	}
	e := &in.tab.entries[i]
	if e.b--; e.b > 0 {
		return
	}
	if e.a > 0 {
		in.unmatched++
		return
	}
	in.tab.free(at, i)
}

// AddLacking records one τ1 element that carries no X-tuple.
//
//xic:hotpath
func (in *InclusionIndex) AddLacking() { in.lacking++ }

// RemoveLacking removes one tuple-lacking τ1 element.
//
//xic:hotpath
func (in *InclusionIndex) RemoveLacking() {
	if in.lacking > 0 {
		in.lacking--
	}
}

// Lacking returns the number of τ1 elements carrying no X-tuple.
//
//xic:hotpath
func (in *InclusionIndex) Lacking() int { return in.lacking }

// Unmatched returns the number of distinct child tuples with no parent
// occurrence.
//
//xic:hotpath
func (in *InclusionIndex) Unmatched() int { return in.unmatched }

// HasParent reports whether tuple t occurs on the parent side.
//
//xic:hotpath
func (in *InclusionIndex) HasParent(t string) bool { return in.ParentCount(t) > 0 }

// ChildCount returns the child-side occurrence refcount of tuple t.
//
//xic:hotpath
func (in *InclusionIndex) ChildCount(t string) int {
	if e := in.tab.get(t); e != nil {
		return e.a
	}
	return 0
}

// ParentCount returns the parent-side occurrence refcount of tuple t.
//
//xic:hotpath
func (in *InclusionIndex) ParentCount(t string) int {
	if e := in.tab.get(t); e != nil {
		return e.b
	}
	return 0
}

// Dangling reports whether the child tuple t has no parent occurrence,
// with the tuple's first recorded position.
func (in *InclusionIndex) Dangling(t string) (first SrcPos, ok bool) {
	e := in.tab.get(t)
	if e == nil || e.a == 0 || e.b > 0 {
		return SrcPos{}, false
	}
	return e.first, true
}

// EachUnmatched calls f for every distinct child tuple with no parent
// occurrence, in the order the tuples first arrived, with the tuple's
// first recorded position.
func (in *InclusionIndex) EachUnmatched(f func(t string, first SrcPos)) {
	if in.unmatched == 0 {
		return
	}
	for i := range in.tab.entries {
		if e := &in.tab.entries[i]; e.a > 0 && e.b == 0 {
			f(strings.Clone(in.tab.tuple(i)), e.first) // a copy: f may change the index
		}
	}
}

// AnyParent returns some parent-side tuple, preferring one that is not
// equal to avoid; used by repair hints ("point the dangling reference at
// an existing target"). ok is false when the parent side is empty or only
// holds avoid. It returns at the first match.
func (in *InclusionIndex) AnyParent(avoid string) (t string, ok bool) {
	for i := range in.tab.entries {
		if in.tab.entries[i].b > 0 {
			if p := in.tab.tuple(i); p != avoid {
				return strings.Clone(p), true // a copy: the arena moves on compaction
			}
		}
	}
	return "", false
}

// Indexes is the retained constraint state of one validation pass: one
// entry per constraint of the compiled set, in set order, sharing the
// index objects the streaming collectors filled. Callers that keep the
// document around (docsession) mutate these as the document is edited.
type Indexes struct {
	Entries []IndexEntry
}

// IndexEntry pairs one constraint with its index(es): Key constraints and
// NotKey use Key; Inclusion and NotInclusion use Incl; ForeignKey uses
// both (Key indexes the parent's key half, Incl the reference).
type IndexEntry struct {
	Con  constraint.Constraint
	Key  *KeyIndex
	Incl *InclusionIndex
}

// Violated reads the constraint's verdict from its index counters in
// O(1).
//
//xic:hotpath
func (e *IndexEntry) Violated() bool {
	switch e.Con.(type) {
	case constraint.Key:
		return e.Key.Dups() > 0
	case constraint.NotKey:
		return e.Key.Dups() == 0
	case constraint.ForeignKey:
		return e.Key.Dups() > 0 || e.Incl.Unmatched() > 0 || e.Incl.Lacking() > 0
	case constraint.Inclusion:
		return e.Incl.Unmatched() > 0 || e.Incl.Lacking() > 0
	case constraint.NotInclusion:
		return e.Incl.Unmatched() == 0 && e.Incl.Lacking() == 0
	}
	return false
}
