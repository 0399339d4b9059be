package docsession

import (
	"slices"

	"xic/internal/dtd"
	"xic/internal/xmltree"
)

// wideKids is how many children a parent holds before the session indexes
// them. Up to it, a path step scans the children and a structural edit
// replays the parent's content model over all of them, which costs no
// more than keeping an index; beyond it, both go through the parent's
// kids index, so their cost no longer grows with the sibling count.
const wideKids = 8

// kids indexes the children of one wide parent: their slots by label,
// which turn a path step label[i] into a lookup, and the content model's
// position set after each child, from which an insert or delete resumes
// the parent's automaton run just before the slot it edits.
type kids struct {
	groups []kidGroup // one per child label, in first-seen order
	words  int        // position-set width of the parent's automaton
	sets   []uint64   // sets[i*words:][:words]: the set after child i
}

// kidGroup lists the slots of a parent's children with one label.
type kidGroup struct {
	label string
	slots []int32 // ascending
}

// find returns the position in k.groups of the label's slot list, -1
// when no child has the label. The scan is bounded by the element types
// the DTD declares, not by the number of children.
//
//xic:hotpath
func (k *kids) find(label string) int {
	for i := range k.groups {
		if k.groups[i].label == label {
			return i
		}
	}
	return -1
}

// add returns the position of the label's slot list, starting an empty
// one for a label no child has had yet.
func (k *kids) add(label string) int {
	if i := k.find(label); i >= 0 {
		return i
	}
	k.groups = append(k.groups, kidGroup{label: label})
	return len(k.groups) - 1
}

// set returns the position set after child i.
//
//xic:hotpath
func (k *kids) set(i int) []uint64 { return k.sets[i*k.words : (i+1)*k.words] }

// insert records a child with the label inserted at slot at, whose
// position set and those of the children after it up to where the
// content-model replay met the old run are staged, in order.
func (k *kids) insert(at int, label string, staged []uint64) {
	for i := range k.groups {
		g := &k.groups[i]
		j, _ := slices.BinarySearch(g.slots, int32(at))
		for ; j < len(g.slots); j++ {
			g.slots[j]++
		}
	}
	g := &k.groups[k.add(label)]
	j, _ := slices.BinarySearch(g.slots, int32(at))
	g.slots = slices.Insert(g.slots, j, int32(at))
	w := k.words
	k.sets = append(k.sets, make([]uint64, w)...)
	copy(k.sets[(at+1)*w:], k.sets[at*w:])
	copy(k.sets[at*w:], staged)
}

// remove forgets the child with the label at slot at.
func (k *kids) remove(at int, label string) {
	if i := k.find(label); i >= 0 {
		g := &k.groups[i]
		if j, ok := slices.BinarySearch(g.slots, int32(at)); ok {
			g.slots = slices.Delete(g.slots, j, j+1)
		}
	}
	for i := range k.groups {
		g := &k.groups[i]
		j, _ := slices.BinarySearch(g.slots, int32(at))
		for ; j < len(g.slots); j++ {
			g.slots[j]--
		}
	}
	w := k.words
	k.sets = slices.Delete(k.sets, at*w, (at+1)*w)
}

// indexKids builds p's kids index by running its content model over its
// children. The tree is in parse-normal form — no two text siblings are
// adjacent — so every child is one symbol. An undeclared type or a
// failing model leaves p unindexed: only an invalid document, which Open
// discards, has either.
func (s *Session) indexKids(p *xmltree.Node) {
	r := s.runFor(p.Label)
	if r == nil {
		return
	}
	r.Reset()
	k := &kids{words: r.Words()}
	k.sets = make([]uint64, len(p.Children)*k.words)
	// Count the children of each label first, so that the slot lists
	// can share one allocation. Runs of one label are the common case.
	var buf [8]int32
	counts := buf[:0]
	g := -1
	for i, c := range p.Children {
		if !r.Step(c.Label) {
			return
		}
		r.SaveSet(k.set(i))
		if g < 0 || k.groups[g].label != c.Label {
			if g = k.add(c.Label); g == len(counts) {
				counts = append(counts, 0)
			}
		}
		counts[g]++
	}
	slots := make([]int32, len(p.Children))
	for i, n := range counts {
		k.groups[i].slots, slots = slots[:0:n], slots[n:]
	}
	g = -1
	for i, c := range p.Children {
		if g < 0 || k.groups[g].label != c.Label {
			g = k.find(c.Label)
		}
		k.groups[g].slots = append(k.groups[g].slots, int32(i))
	}
	s.wide[p] = k
}

// replay checks p's content model against its children with one edit
// applied — insLabel inserted at slot at (ins), or the child at slot at
// deleted — without touching the tree. A narrow parent re-runs the model
// over all its children. A wide one resumes the run from its kids index
// just before slot at, stages the position sets that change in s.stage,
// and stops as soon as the new run's set equals the old one at the same
// child: from there on the two runs agree, and the old one accepted.
func (s *Session) replay(p *xmltree.Node, at int, ins bool, insLabel string) bool {
	r := s.runFor(p.Label)
	k := s.wide[p]
	if k == nil {
		r.Reset()
		prevText := false
		for i := 0; i <= len(p.Children); i++ {
			if ins && i == at {
				if !r.Step(insLabel) {
					return false
				}
				prevText = false
			}
			if i == len(p.Children) {
				break
			}
			c := p.Children[i]
			if !ins && i == at || c.IsText() && prevText {
				continue // deleted, or coalesced with the text before it
			}
			prevText = c.IsText()
			if !r.Step(c.Label) {
				return false
			}
		}
		return r.Accepting()
	}
	if at == 0 {
		r.Reset()
	} else {
		r.RestoreSet(k.set(at - 1))
	}
	s.nstage = 0
	next := at
	if ins {
		if !r.Step(insLabel) {
			return false
		}
		s.stageSet(r)
	} else if next = at + 1; mergesText(p, at) {
		next++ // the text after the deleted child joins the text before it
	}
	for ; next < len(p.Children); next++ {
		if !r.Step(p.Children[next].Label) {
			return false
		}
		if r.SameSet(k.set(next)) {
			return true
		}
		s.stageSet(r)
	}
	return r.Accepting()
}

// stageSet appends the run's position set to s.stage.
func (s *Session) stageSet(r *dtd.Run) {
	w := r.Words()
	if end := (s.nstage + 1) * w; end > len(s.stage) {
		s.stage = append(s.stage, make([]uint64, end-len(s.stage))...)
	}
	r.SaveSet(s.stage[s.nstage*w:][:w])
	s.nstage++
}

// mergesText reports whether deleting p's child at slot at makes two text
// siblings adjacent.
func mergesText(p *xmltree.Node, at int) bool {
	return at > 0 && at+1 < len(p.Children) &&
		p.Children[at-1].IsText() && p.Children[at+1].IsText()
}

// walk calls f on each element of the subtree rooted at n, in document
// order, until f returns false. It keeps its own stack rather than
// recursing: an inserted fragment may nest arbitrarily deep.
func walk(n *xmltree.Node, f func(*xmltree.Node) bool) {
	stack := []*xmltree.Node{n}
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if e.IsText() {
			continue
		}
		if !f(e) {
			return
		}
		for i := len(e.Children) - 1; i >= 0; i-- {
			stack = append(stack, e.Children[i])
		}
	}
}
