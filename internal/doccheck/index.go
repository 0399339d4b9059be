package doccheck

import "xic/internal/constraint"

// This file holds the incremental constraint indexes. The streaming
// collectors in doccheck.go are thin views over these types, and a
// retained-document session (internal/docsession) keeps the same indexes
// alive after the pass and mutates them as the document is edited: every
// Add has a matching Remove, and the derived verdict counters (duplicate
// occurrences, lacking children, unmatched tuples) are maintained
// incrementally so a constraint's status after an edit is O(1) to read.

// SrcPos is a compact source position for index entries: keeping only
// numbers (not paths) in the hash indexes keeps their memory at a few
// words per distinct value. Entries added after the initial pass (by a
// document session) carry the zero SrcPos.
type SrcPos struct {
	Line int
	Off  int64
}

// keyEntry is the per-tuple payload of a KeyIndex: the occurrence
// refcount and the position of the first occurrence.
type keyEntry struct {
	count int
	first SrcPos
}

// KeyIndex is the incremental occurrence index of one attribute tuple
// projection τ[X]: a refcount per distinct tuple plus the running number
// of duplicated occurrences. A Key constraint (and the key half of a
// foreign key) is satisfied iff Dups() == 0; a negated key is satisfied
// iff Dups() > 0.
type KeyIndex struct {
	Type  string
	Attrs []string
	seen  map[string]keyEntry
	extra int // occurrences beyond the first, summed over tuples
}

// NewKeyIndex returns an empty index over τ[X].
func NewKeyIndex(typ string, attrs []string) *KeyIndex {
	return &KeyIndex{Type: typ, Attrs: attrs, seen: make(map[string]keyEntry)}
}

// Add records one occurrence of tuple t at pos. It returns the position
// of the first recorded occurrence and whether this occurrence duplicates
// an earlier one.
//
//xic:hotpath
func (k *KeyIndex) Add(t string, pos SrcPos) (SrcPos, bool) {
	e, ok := k.seen[t]
	if ok {
		e.count++
		k.seen[t] = e
		k.extra++
		return e.first, true
	}
	k.seen[t] = keyEntry{count: 1, first: pos}
	return pos, false
}

// Remove removes one occurrence of tuple t, returning the first recorded
// position (so a transactional caller can re-Add on rollback). Removing a
// tuple that was never added is a no-op.
//
//xic:hotpath
func (k *KeyIndex) Remove(t string) SrcPos {
	e, ok := k.seen[t]
	if !ok {
		return SrcPos{}
	}
	if e.count > 1 {
		e.count--
		k.seen[t] = e
		k.extra--
		return e.first
	}
	delete(k.seen, t)
	return e.first
}

// Count returns the occurrence refcount of tuple t.
//
//xic:hotpath
func (k *KeyIndex) Count(t string) int { return k.seen[t].count }

// Dups returns the number of occurrences beyond the first, summed over
// all tuples; 0 means every tuple is distinct.
//
//xic:hotpath
func (k *KeyIndex) Dups() int { return k.extra }

// Len returns the number of distinct tuples in the index.
func (k *KeyIndex) Len() int { return len(k.seen) }

// Has reports whether tuple t is present.
//
//xic:hotpath
func (k *KeyIndex) Has(t string) bool {
	_, ok := k.seen[t]
	return ok
}

// inclEntry is the per-tuple payload of the child side of an
// InclusionIndex.
type inclEntry struct {
	count int
	first SrcPos
}

// InclusionIndex is the incremental two-sided index of one inclusion
// τ1[X] ⊆ τ2[Y] (or its negation): refcounted child and parent tuple
// sets plus two derived counters — Lacking, the number of τ1 elements
// carrying no X-tuple at all, and Unmatched, the number of distinct child
// tuples with no parent occurrence. The inclusion is satisfied iff both
// counters are zero; its negation is satisfied iff either is positive.
type InclusionIndex struct {
	ChildType   string
	ParentType  string
	ChildAttrs  []string
	ParentAttrs []string

	children  map[string]inclEntry
	parents   map[string]int
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
		children:    make(map[string]inclEntry),
		parents:     make(map[string]int),
	}
}

// AddChild records one child occurrence of tuple t at pos.
//
//xic:hotpath
func (in *InclusionIndex) AddChild(t string, pos SrcPos) {
	e, ok := in.children[t]
	if ok {
		e.count++
		in.children[t] = e
		return
	}
	in.children[t] = inclEntry{count: 1, first: pos}
	if in.parents[t] == 0 {
		in.unmatched++
	}
}

// RemoveChild removes one child occurrence of tuple t, returning the
// first recorded position (for transactional rollback).
//
//xic:hotpath
func (in *InclusionIndex) RemoveChild(t string) SrcPos {
	e, ok := in.children[t]
	if !ok {
		return SrcPos{}
	}
	if e.count > 1 {
		e.count--
		in.children[t] = e
		return e.first
	}
	delete(in.children, t)
	if in.parents[t] == 0 {
		in.unmatched--
	}
	return e.first
}

// AddParent records one parent occurrence of tuple t.
//
//xic:hotpath
func (in *InclusionIndex) AddParent(t string) {
	n := in.parents[t]
	in.parents[t] = n + 1
	if n == 0 {
		if _, ok := in.children[t]; ok {
			in.unmatched--
		}
	}
}

// RemoveParent removes one parent occurrence of tuple t.
//
//xic:hotpath
func (in *InclusionIndex) RemoveParent(t string) {
	n := in.parents[t]
	if n == 0 {
		return
	}
	if n == 1 {
		delete(in.parents, t)
		if _, ok := in.children[t]; ok {
			in.unmatched++
		}
		return
	}
	in.parents[t] = n - 1
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
func (in *InclusionIndex) HasParent(t string) bool { return in.parents[t] > 0 }

// ChildCount returns the child-side occurrence refcount of tuple t.
//
//xic:hotpath
func (in *InclusionIndex) ChildCount(t string) int { return in.children[t].count }

// ParentCount returns the parent-side occurrence refcount of tuple t.
//
//xic:hotpath
func (in *InclusionIndex) ParentCount(t string) int { return in.parents[t] }

// Dangling reports whether the child tuple t has no parent occurrence,
// with the tuple's first recorded position.
func (in *InclusionIndex) Dangling(t string) (first SrcPos, ok bool) {
	e, ok := in.children[t]
	if !ok || in.parents[t] > 0 {
		return SrcPos{}, false
	}
	return e.first, true
}

// EachUnmatched calls f for every distinct child tuple with no parent
// occurrence, in unspecified order, with the tuple's first recorded
// position.
func (in *InclusionIndex) EachUnmatched(f func(t string, first SrcPos)) {
	if in.unmatched == 0 {
		return
	}
	for t, e := range in.children {
		if in.parents[t] == 0 {
			f(t, e.first)
		}
	}
}

// AnyParent returns some parent-side tuple, preferring one that is not
// equal to avoid; used by repair hints ("point the dangling reference at
// an existing target"). ok is false when the parent side is empty or only
// holds avoid.
func (in *InclusionIndex) AnyParent(avoid string) (t string, ok bool) {
	for p := range in.parents {
		if p != avoid {
			return p, true
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
