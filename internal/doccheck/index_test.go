package doccheck

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"xic/internal/constraint"
)

func TestKeyIndexAddRemove(t *testing.T) {
	k := NewKeyIndex("item", []string{"id"})
	if _, dup := k.Add("a", SrcPos{Line: 1}); dup {
		t.Fatal("first add reported dup")
	}
	first, dup := k.Add("a", SrcPos{Line: 9})
	if !dup || first.Line != 1 {
		t.Fatalf("second add: dup=%v first=%+v, want dup at line 1", dup, first)
	}
	if k.Dups() != 1 || k.Count("a") != 2 || k.Len() != 1 {
		t.Fatalf("after two adds: dups=%d count=%d len=%d", k.Dups(), k.Count("a"), k.Len())
	}
	k.Remove("a")
	if k.Dups() != 0 || k.Count("a") != 1 {
		t.Fatalf("after remove: dups=%d count=%d", k.Dups(), k.Count("a"))
	}
	k.Remove("a")
	if k.Has("a") || k.Len() != 0 {
		t.Fatal("index not empty after removing both occurrences")
	}
	k.Remove("never-added") // no-op, must not underflow
	if k.Dups() != 0 {
		t.Fatal("phantom remove disturbed the dup counter")
	}
}

func TestInclusionIndexCounters(t *testing.T) {
	in := NewInclusionIndex(constraint.Inclusion{
		Child: "ref", ChildAttrs: []string{"to"},
		Parent: "grp", ParentAttrs: []string{"id"},
	})
	in.AddChild("g1", SrcPos{})
	if in.Unmatched() != 1 {
		t.Fatalf("unmatched=%d, want 1", in.Unmatched())
	}
	in.AddParent("g1")
	if in.Unmatched() != 0 {
		t.Fatalf("after parent add: unmatched=%d, want 0", in.Unmatched())
	}
	in.AddParent("g1")
	in.RemoveParent("g1")
	if in.Unmatched() != 0 || !in.HasParent("g1") {
		t.Fatal("removing one of two parent occurrences must keep the tuple matched")
	}
	in.RemoveParent("g1")
	if in.Unmatched() != 1 || in.HasParent("g1") {
		t.Fatalf("after last parent removed: unmatched=%d hasParent=%v", in.Unmatched(), in.HasParent("g1"))
	}
	in.AddChild("g1", SrcPos{})
	in.RemoveChild("g1")
	if in.Unmatched() != 1 {
		t.Fatalf("removing one of two child occurrences: unmatched=%d, want 1", in.Unmatched())
	}
	in.RemoveChild("g1")
	if in.Unmatched() != 0 || in.ChildCount("g1") != 0 {
		t.Fatalf("after last child removed: unmatched=%d", in.Unmatched())
	}
	in.AddLacking()
	in.AddLacking()
	in.RemoveLacking()
	if in.Lacking() != 1 {
		t.Fatalf("lacking=%d, want 1", in.Lacking())
	}
}

// TestRunRetainIndexesMatchDocument checks that RunRetain hands back
// indexes reflecting the document's tuples, including the negated-key
// index that streaming mode would have dropped once satisfied.
func TestRunRetainIndexesMatchDocument(t *testing.T) {
	ck := newChecker(t, `
		<!ELEMENT lib (grp*, ref*)>
		<!ELEMENT grp EMPTY>
		<!ATTLIST grp id CDATA #REQUIRED>
		<!ATTLIST grp tag CDATA #REQUIRED>
		<!ELEMENT ref EMPTY>
		<!ATTLIST ref to CDATA #REQUIRED>
		`,
		"grp.id -> grp\nref.to <= grp.id\nnot grp.tag -> grp")
	doc := `<lib><grp id="a" tag="t"/><grp id="b" tag="t"/><ref to="a"/></lib>`
	rep, idxs, err := ck.RunRetain(context.Background(), strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("document should be valid, got %v", rep.Violations)
	}
	if len(idxs.Entries) != 3 {
		t.Fatalf("got %d index entries, want 3", len(idxs.Entries))
	}
	key := idxs.Entries[0].Key
	if key.Count("a") != 1 || key.Count("b") != 1 || key.Dups() != 0 {
		t.Fatalf("key index wrong: a=%d b=%d dups=%d", key.Count("a"), key.Count("b"), key.Dups())
	}
	incl := idxs.Entries[1].Incl
	if incl.ChildCount("a") != 1 || !incl.HasParent("a") || incl.Unmatched() != 0 {
		t.Fatalf("inclusion index wrong: child(a)=%d parent(a)=%v unmatched=%d",
			incl.ChildCount("a"), incl.HasParent("a"), incl.Unmatched())
	}
	// The not-key index must be complete (retain mode): both tag
	// occurrences present even though the duplicate decided the verdict.
	nk := idxs.Entries[2].Key
	if nk.Count("t") != 2 || nk.Dups() != 1 {
		t.Fatalf("not-key index dropped in retain mode: count=%d dups=%d", nk.Count("t"), nk.Dups())
	}
}

// indexAlphabet is the tuples FuzzIndexAgreement draws from: the empty
// value, short and long values, multi-attribute tuple keys (one of them
// with separators inside its values), and enough plain values to grow a
// table several times.
var indexAlphabet = func() []string {
	a := []string{
		"",
		"a",
		"b",
		strings.Repeat("x", 100),
		strings.Repeat("y", 300),
		constraint.TupleKey([]string{"a", "b"}),
		constraint.TupleKey([]string{"", ""}),
		constraint.TupleKey([]string{"1:a", ""}),
		constraint.TupleKey([]string{"ab", strings.Repeat("z", 70)}),
	}
	for i := len(a); i < 32; i++ {
		a = append(a, fmt.Sprintf("v%d", i))
	}
	return a
}()

// Index ops, one byte each, followed by one byte choosing the tuple.
const (
	opAdd byte = iota
	opRemove
	opAddChild
	opRemoveChild
	opAddParent
	opRemoveParent
	opAddLacking
	opRemoveLacking
	numIndexOps
)

// maxIndexOps bounds the ops of one FuzzIndexAgreement input.
const maxIndexOps = 512

// indexModel is the plain-map model of one KeyIndex and one
// InclusionIndex.
type indexModel struct {
	count, child, parent map[string]int
	keyFirst, childFirst map[string]SrcPos
	lacking              int
}

// FuzzIndexAgreement drives a KeyIndex and an InclusionIndex with random
// op sequences, removes of absent tuples included, and compares every
// reading of both with a plain-map model after every op.
func FuzzIndexAgreement(f *testing.F) {
	seq := func(steps ...[]byte) []byte { return slices.Concat(steps...) }
	each := func(op byte, from, to int) []byte {
		var b []byte
		for i := from; i < to; i++ {
			b = append(b, op, byte(i))
		}
		return b
	}
	n := len(indexAlphabet)
	// Growth: every tuple on every side, twice.
	f.Add(seq(each(opAdd, 0, n), each(opAddChild, 0, n), each(opAddParent, 0, n), each(opAdd, 0, n), each(opAddChild, 0, n)))
	// Long runs of deletes, of present and absent tuples, down to empty
	// tables, then refills.
	f.Add(seq(each(opAdd, 0, n), each(opAddParent, 0, n/2), each(opAddChild, n/4, n),
		each(opRemove, 0, n), each(opRemove, 0, n), each(opRemoveParent, 0, n), each(opRemoveChild, 0, n),
		each(opAdd, n/2, n), each(opAddChild, 0, n/2)))
	// Compaction: the long values die while short ones live, so dead bytes
	// outweigh live ones; then the survivors are read and churned.
	f.Add(seq(each(opAdd, 0, 9), each(opAddChild, 0, 9), each(opAddParent, 3, 5),
		each(opRemove, 3, 5), each(opRemoveChild, 3, 5), each(opRemoveParent, 3, 5),
		each(opAdd, 9, 20), each(opRemove, 9, 20), each(opAdd, 3, 5), each(opAddChild, 4, 9)))
	// Duplicates withdrawn one occurrence at a time.
	f.Add(seq(each(opAdd, 0, 9), each(opAdd, 0, 9), each(opAddParent, 0, 9), each(opAddParent, 0, 9), each(opAddChild, 0, 9),
		each(opRemove, 0, 9), each(opRemoveParent, 0, 9), each(opRemove, 0, 9), each(opRemoveParent, 0, 9)))
	f.Add([]byte{opAddLacking, 0, opRemoveLacking, 0, opRemoveLacking, 0, opAddChild, 1, opAddParent, 1, opRemoveChild, 1, opAddChild, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		tm := time.AfterFunc(2*time.Second, func() {
			panic(fmt.Sprintf("hang on input %x", ops))
		})
		runIndexOps(t, ops)
		tm.Stop()
	})
}

// runIndexOps applies ops, two bytes each, to fresh indexes and their
// model, comparing the two after every op: the counters, the unmatched
// set and AnyParent each time, and the per-tuple readings for the op's
// tuple, or for the whole alphabet every 32 ops and after the last. It
// reads at most maxIndexOps ops, so that one input stays cheap enough to
// minimize.
func runIndexOps(t *testing.T, ops []byte) {
	ops = ops[:min(len(ops), 2*maxIndexOps)]
	k := NewKeyIndex("item", []string{"id"})
	in := NewInclusionIndex(constraint.Inclusion{Child: "ref", ChildAttrs: []string{"to"}, Parent: "item", ParentAttrs: []string{"id"}})
	m := indexModel{
		count: map[string]int{}, child: map[string]int{}, parent: map[string]int{},
		keyFirst: map[string]SrcPos{}, childFirst: map[string]SrcPos{},
	}
	for i := 0; i+1 < len(ops); i += 2 {
		op, tup := ops[i]%numIndexOps, indexAlphabet[int(ops[i+1])%len(indexAlphabet)]
		pos := SrcPos{Line: i + 1, Off: int64(i)}
		switch op {
		case opAdd:
			first, dup := k.Add(tup, pos)
			if m.count[tup] == 0 {
				m.keyFirst[tup] = pos
			}
			m.count[tup]++
			if dup != (m.count[tup] > 1) || first != m.keyFirst[tup] {
				t.Fatalf("op %d: Add(%.20q) = %+v, %v; want %+v, %v", i, tup, first, dup, m.keyFirst[tup], m.count[tup] > 1)
			}
		case opRemove:
			if got, want := k.Remove(tup), m.keyFirst[tup]; got != want {
				t.Fatalf("op %d: Remove(%.20q) = %+v, want %+v", i, tup, got, want)
			}
			if m.count[tup]--; m.count[tup] <= 0 {
				delete(m.count, tup)
				delete(m.keyFirst, tup)
			}
		case opAddChild:
			in.AddChild(tup, pos)
			if m.child[tup] == 0 {
				m.childFirst[tup] = pos
			}
			m.child[tup]++
		case opRemoveChild:
			if got, want := in.RemoveChild(tup), m.childFirst[tup]; got != want {
				t.Fatalf("op %d: RemoveChild(%.20q) = %+v, want %+v", i, tup, got, want)
			}
			if m.child[tup]--; m.child[tup] <= 0 {
				delete(m.child, tup)
				delete(m.childFirst, tup)
			}
		case opAddParent:
			in.AddParent(tup)
			m.parent[tup]++
		case opRemoveParent:
			in.RemoveParent(tup)
			if m.parent[tup]--; m.parent[tup] <= 0 {
				delete(m.parent, tup)
			}
		case opAddLacking:
			in.AddLacking()
			m.lacking++
		case opRemoveLacking:
			in.RemoveLacking()
			m.lacking = max(m.lacking-1, 0)
		}
		tuples := []string{tup}
		if i%64 == 0 || i+3 >= len(ops) {
			tuples = indexAlphabet
		}
		m.compare(t, i, k, in, tup, tuples)
	}
}

// compare checks every reading of k and in against the model: the
// per-tuple ones for tuples, AnyParent avoiding "" and touched.
func (m *indexModel) compare(t *testing.T, op int, k *KeyIndex, in *InclusionIndex, touched string, tuples []string) {
	t.Helper()
	dups, unmatched := 0, map[string]SrcPos{}
	for _, c := range m.count {
		dups += c - 1
	}
	for tup, c := range m.child {
		if c > 0 && m.parent[tup] == 0 {
			unmatched[tup] = m.childFirst[tup]
		}
	}
	if k.Len() != len(m.count) || k.Dups() != dups {
		t.Fatalf("op %d: key Len %d Dups %d, want %d %d", op, k.Len(), k.Dups(), len(m.count), dups)
	}
	if in.Unmatched() != len(unmatched) || in.Lacking() != m.lacking {
		t.Fatalf("op %d: Unmatched %d Lacking %d, want %d %d", op, in.Unmatched(), in.Lacking(), len(unmatched), m.lacking)
	}
	for _, tup := range tuples {
		if k.Count(tup) != m.count[tup] || k.Has(tup) != (m.count[tup] > 0) {
			t.Fatalf("op %d: key Count(%.20q) %d Has %v, want %d", op, tup, k.Count(tup), k.Has(tup), m.count[tup])
		}
		if in.ChildCount(tup) != m.child[tup] || in.ParentCount(tup) != m.parent[tup] || in.HasParent(tup) != (m.parent[tup] > 0) {
			t.Fatalf("op %d: %.20q: ChildCount %d ParentCount %d HasParent %v, want %d %d",
				op, tup, in.ChildCount(tup), in.ParentCount(tup), in.HasParent(tup), m.child[tup], m.parent[tup])
		}
		first, dangling := in.Dangling(tup)
		if want, ok := unmatched[tup]; dangling != ok || first != want {
			t.Fatalf("op %d: Dangling(%.20q) = %+v, %v; want %+v, %v", op, tup, first, dangling, want, ok)
		}
	}
	seen := map[string]SrcPos{}
	in.EachUnmatched(func(tup string, first SrcPos) {
		if _, dup := seen[tup]; dup {
			t.Fatalf("op %d: EachUnmatched visits %.20q twice", op, tup)
		}
		seen[tup] = first
	})
	if !maps.Equal(seen, unmatched) {
		t.Fatalf("op %d: EachUnmatched visits %d tuples, want %d", op, len(seen), len(unmatched))
	}
	for _, avoid := range []string{"", touched} {
		p, ok := in.AnyParent(avoid)
		others := len(m.parent)
		if m.parent[avoid] > 0 {
			others--
		}
		switch {
		case ok && (p == avoid || m.parent[p] == 0):
			t.Fatalf("op %d: AnyParent(%.20q) = %.20q, which is avoided or has no parent occurrence", op, avoid, p)
		case !ok && others > 0:
			t.Fatalf("op %d: AnyParent(%.20q) found nothing among %d other parent tuples", op, avoid, others)
		}
	}
}
