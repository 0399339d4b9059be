package gen

import (
	"encoding/json"
	"math/rand/v2"
	"strings"
)

// EditOp is one session edit, in the program's wire shape.
type EditOp struct {
	Kind  string `json:"kind"`
	Path  string `json:"path"`
	Index int    `json:"index,omitempty"`
	XML   string `json:"xml,omitempty"`
	Attr  string `json:"attr,omitempty"`
	Value string `json:"value,omitempty"`
}

// Edit classes: the two point edits, the two structural ones, and edits
// the engine must reject (duplicate key, dangling reference).
const (
	ClassSetAttr = "setattr"
	ClassSetText = "settext"
	ClassInsert  = "insert"
	ClassDelete  = "delete"
	ClassReject  = "reject"
)

// EditStep is one edit request and the shadow model's expected outcome.
type EditStep struct {
	Op    EditOp
	Body  []byte // {"ops":[Op]}
	Class string
	// Applied is whether the engine must accept the edit; a rejected edit
	// must come with a repair hint.
	Applied bool
	// Elements is the document's element count after the edit.
	Elements int
	// Pos is the target item's position among Siblings items.
	Pos, Siblings int
}

// Edit is the edit workload's input: one catalog document per client and
// each client's edit script.
type Edit struct {
	Spec    DocSpec
	Docs    []Doc
	Scripts [][]EditStep
}

// Edit workload shape: the opened document's size in elements, and the
// length of a client's script.
const (
	editDocElements = 1e5
	editCycle       = 20000
)

// NewEdit generates the edit workload for a seed and client count. A
// client's script is a cycle: it leaves the document's structure as it
// found it (every insert adds a fresh item that the next delete removes,
// and rejected edits change nothing), so the load generator can repeat it
// for as long as a run lasts, with every step's body and expected outcome
// built before the server starts.
func NewEdit(seed uint64, clients int) *Edit {
	w := &Edit{Spec: docSpecs()[0]}
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewPCG(seed, 0xed17+uint64(c)))
		cat := newCatalog(editDocElements, 15, 35, rng)
		doc := cat.render(Clean, rng)
		w.Docs = append(w.Docs, doc)
		s := &script{cat: cat, elements: doc.Elements, rng: rng, fresh: -1}
		for len(s.steps) < editCycle || s.fresh >= 0 {
			s.next()
		}
		w.Scripts = append(w.Scripts, s.steps)
	}
	return w
}

// script generates a client's edits against a shadow model of its
// document.
type script struct {
	cat      *catalog
	elements int
	rng      *rand.Rand
	steps    []EditStep
	// fresh is the position of the item the last insert added, -1 when
	// none is pending: inserts and deletes alternate.
	fresh int
}

// next draws the next edit: 40% setattr, 40% settext, 15% insert or
// delete (alternating, so the size stays steady), 5% rejected.
func (s *script) next() {
	c, rng := s.cat, s.rng
	var st EditStep
	st.Siblings = len(c.items)
	switch r := rng.IntN(100); {
	case r < 30:
		st.Pos = rng.IntN(len(c.items))
		st.Class, st.Applied = ClassSetAttr, true
		st.Op = EditOp{Kind: "setattr", Path: itemPath(st.Pos), Attr: "rev", Value: itoa(rng.IntN(1000))}
	case r < 40:
		st.Pos = rng.IntN(len(c.items))
		st.Class, st.Applied = ClassSetAttr, true
		st.Op = EditOp{Kind: "setattr", Path: itemPath(st.Pos), Attr: "group", Value: c.cats[rng.IntN(len(c.cats))]}
	case r < 80:
		st.Pos = rng.IntN(len(c.items))
		st.Class, st.Applied = ClassSetText, true
		st.Op = EditOp{Kind: "settext", Path: itemPath(st.Pos) + "/name[0]", Value: "renamed " + itoa(rng.IntN(1e6))}
	case r < 95:
		if s.fresh < 0 {
			st = s.insert()
		} else {
			st = s.delete()
		}
	case r < 97:
		// Duplicate key: an unreferenced item takes another item's id.
		st.Pos = s.unreferenced()
		other := (st.Pos + 1 + rng.IntN(len(c.items)-1)) % len(c.items)
		st.Class = ClassReject
		st.Op = EditOp{Kind: "setattr", Path: itemPath(st.Pos), Attr: "id", Value: c.items[other].id}
	default:
		// Dangling reference: a link retargeted at no item.
		st.Pos = s.linked()
		st.Class = ClassReject
		st.Op = EditOp{Kind: "setattr", Path: itemPath(st.Pos) + "/link[0]", Attr: "to", Value: "gone" + itoa(rng.IntN(1e6))}
	}
	st.Elements = s.elements
	st.Body, _ = json.Marshal(map[string][]EditOp{"ops": {st.Op}}) // a map of plain strings always marshals
	s.steps = append(s.steps, st)
}

// insert adds a fresh item, linking to existing ones, at a random slot.
// No link ever points at a fresh item, since the next structural edit
// deletes it again.
func (s *script) insert() EditStep {
	c, rng := s.cat, s.rng
	it := &catalogItem{id: "n" + itoa(c.serial), parts: 15 + rng.IntN(21)}
	c.serial++
	for k := rng.IntN(3); k > 0; k-- {
		t := c.items[rng.IntN(len(c.items))]
		t.refs++
		it.links = append(it.links, t.id)
	}
	pos := rng.IntN(len(c.items) + 1)
	var w xmlw
	c.itemXML(&w, it, Clean, "", rng)
	st := EditStep{Class: ClassInsert, Applied: true, Pos: pos, Siblings: len(c.items),
		Op: EditOp{Kind: "insert", Path: "catalog", Index: len(c.cats) + pos, XML: strings.TrimSpace(w.b.String())}}
	c.items = append(c.items, nil)
	copy(c.items[pos+1:], c.items[pos:])
	c.items[pos] = it
	s.fresh = pos
	s.elements += it.size()
	return st
}

// delete removes the item the last insert added.
func (s *script) delete() EditStep {
	c, pos := s.cat, s.fresh
	it := c.items[pos]
	for _, l := range it.links {
		for _, t := range c.items {
			if t.id == l {
				t.refs--
				break
			}
		}
	}
	st := EditStep{Class: ClassDelete, Applied: true, Pos: pos, Siblings: len(c.items),
		Op: EditOp{Kind: "delete", Path: itemPath(pos)}}
	c.items = append(c.items[:pos], c.items[pos+1:]...)
	s.fresh = -1
	s.elements -= it.size()
	return st
}

// unreferenced picks a random item that no link points at.
func (s *script) unreferenced() int {
	for {
		if p := s.rng.IntN(len(s.cat.items)); s.cat.items[p].refs == 0 {
			return p
		}
	}
}

// linked picks a random item with at least one link.
func (s *script) linked() int {
	for {
		if p := s.rng.IntN(len(s.cat.items)); len(s.cat.items[p].links) > 0 {
			return p
		}
	}
}

func itemPath(pos int) string { return "catalog/item[" + itoa(pos) + "]" }
