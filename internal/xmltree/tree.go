// Package xmltree implements the node-labeled tree model of XML documents
// used by Fan & Libkin (Definition 2.2): finite ordered trees whose nodes
// are elements, text nodes, or single-valued string attributes, together
// with DTD conformance checking and conversion to and from XML text.
package xmltree

import (
	"fmt"
	"slices"
	"strings"

	"xic/internal/dtd"
)

// Node is a node of an XML tree: either an element (Label is its element
// type) or a text node (Label is dtd.TextSymbol and Value holds the text).
// Attributes — which Definition 2.2 also models as nodes — are kept as
// (name, value) pairs sorted by name, since only their string values ever
// matter; Attr, SetAttr, AttrNames and Attrs reach them.
type Node struct {
	Label    string
	Value    string  // text content; meaningful for text nodes only
	Children []*Node // subelements and text nodes in document order
	attrs    []Attr  // sorted by name; nil when empty
}

// Attr is one attribute of an element.
type Attr struct {
	Name, Value string
}

// NewElement returns an element node with the given element type.
func NewElement(label string) *Node {
	return &Node{Label: label}
}

// NewText returns a text node with the given content.
func NewText(value string) *Node {
	return &Node{Label: dtd.TextSymbol, Value: value}
}

// IsText reports whether the node is a text node.
func (n *Node) IsText() bool { return n.Label == dtd.TextSymbol }

// SetAttr sets the value of attribute l and returns the node, allowing
// fluent construction. A new name reallocates a full attribute slice, so
// a node whose pairs a Builder carved never writes over its neighbour's.
func (n *Node) SetAttr(l, v string) *Node {
	if i := n.attrIndex(l); i >= 0 {
		n.attrs[i].Value = v
		return n
	}
	i := 0
	for i < len(n.attrs) && n.attrs[i].Name < l {
		i++
	}
	n.attrs = slices.Insert(n.attrs, i, Attr{Name: l, Value: v})
	return n
}

// Attr returns the value of attribute l on the node.
//
//xic:hotpath
func (n *Node) Attr(l string) (string, bool) {
	if i := n.attrIndex(l); i >= 0 {
		return n.attrs[i].Value, true
	}
	return "", false
}

// attrIndex returns the position of attribute l among the node's pairs,
// or -1. An element has few attributes, and == rejects a name of another
// length without reading its bytes, so a scan beats a binary search's
// ordered comparisons.
//
//xic:hotpath
func (n *Node) attrIndex(l string) int {
	for i := range n.attrs {
		if n.attrs[i].Name == l {
			return i
		}
	}
	return -1
}

// Attrs returns the node's attributes, sorted by name. The slice is the
// node's own: read it, and change attributes only through SetAttr.
func (n *Node) Attrs() []Attr { return n.attrs }

// AttrNames returns the node's attribute names, sorted.
func (n *Node) AttrNames() []string {
	out := make([]string, len(n.attrs))
	for i, a := range n.attrs {
		out[i] = a.Name
	}
	return out
}

// Append adds children to the node and returns the node.
func (n *Node) Append(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	return n
}

// Tree is a finite XML tree with a distinguished root element.
type Tree struct {
	Root *Node
}

// NewTree returns a tree with the given root node.
func NewTree(root *Node) *Tree { return &Tree{Root: root} }

// Walk visits every node of the tree in document order (pre-order). The
// visit function may return false to prune the subtree below a node. The
// walk does not recurse, so no depth of tree can overflow the stack.
func (t *Tree) Walk(visit func(*Node) bool) {
	if t == nil || t.Root == nil {
		return
	}
	stack := []*Node{t.Root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !visit(n) {
			continue
		}
		for i := len(n.Children) - 1; i >= 0; i-- {
			stack = append(stack, n.Children[i])
		}
	}
}

// Ext returns ext(τ): all nodes labeled with the given element type, in
// document order.
func (t *Tree) Ext(label string) []*Node {
	var out []*Node
	t.Walk(func(n *Node) bool {
		if n.Label == label {
			out = append(out, n)
		}
		return true
	})
	return out
}

// ExtAttr returns ext(τ.l): the set of values of attribute l over all nodes
// labeled τ. Nodes lacking the attribute are skipped (they would make the
// tree non-conforming to any DTD defining l for τ).
func (t *Tree) ExtAttr(label, attr string) map[string]bool {
	out := make(map[string]bool)
	t.Walk(func(n *Node) bool {
		if n.Label == label {
			if v, ok := n.Attr(attr); ok {
				out[v] = true
			}
		}
		return true
	})
	return out
}

// Size returns the number of nodes in the tree, counting attributes as
// nodes per Definition 2.2.
func (t *Tree) Size() int {
	n := 0
	t.Walk(func(node *Node) bool {
		n += 1 + len(node.attrs)
		return true
	})
	return n
}

// Clone returns a deep copy of the tree. Every node gets its own copy of
// the attribute pairs, so editing the copy never reaches the original. It
// does not recurse, so no depth of tree can overflow the stack.
func (t *Tree) Clone() *Tree {
	if t == nil || t.Root == nil {
		return &Tree{}
	}
	type pair struct{ from, to *Node }
	root := &Node{}
	stack := []pair{{t.Root, root}}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		p.to.Label, p.to.Value, p.to.attrs = p.from.Label, p.from.Value, slices.Clone(p.from.attrs)
		if len(p.from.Children) > 0 {
			p.to.Children = make([]*Node, len(p.from.Children))
			for i, c := range p.from.Children {
				p.to.Children[i] = &Node{}
				stack = append(stack, pair{c, p.to.Children[i]})
			}
		}
	}
	return &Tree{Root: root}
}

// String renders the tree as indented XML text.
func (t *Tree) String() string {
	return Serialize(t)
}

// Path returns a /-separated element path from the root to the node,
// using child indices for disambiguation, e.g. teachers/teacher[1]/teach[0].
// It returns "" if the node is not in the tree. The search does not
// recurse, so no depth of tree can overflow the stack.
func (t *Tree) Path(target *Node) string {
	if t.Root == target {
		return t.Root.Label
	}
	// The open elements of a pre-order search, each with the slot after
	// the child it descended into.
	type cursor struct {
		n    *Node
		next int
	}
	stack := []cursor{{n: t.Root}}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next == len(top.n.Children) {
			stack = stack[:len(stack)-1]
			continue
		}
		c := top.n.Children[top.next]
		top.next++
		if c != target {
			stack = append(stack, cursor{n: c})
			continue
		}
		var b strings.Builder
		b.WriteString(t.Root.Label)
		for _, cur := range stack {
			slot := cur.next - 1
			step := cur.n.Children[slot]
			idx := 0
			for _, sib := range cur.n.Children[:slot] {
				if sib.Label == step.Label {
					idx++
				}
			}
			fmt.Fprintf(&b, "/%s[%d]", step.Label, idx)
		}
		return b.String()
	}
	return ""
}
