// Package xmltree implements the node-labeled tree model of XML documents
// used by Fan & Libkin (Definition 2.2): finite ordered trees whose nodes
// are elements, text nodes, or single-valued string attributes, together
// with DTD conformance checking and conversion to and from XML text.
package xmltree

import (
	"fmt"
	"sort"

	"xic/internal/dtd"
)

// Node is a node of an XML tree: either an element (Label is its element
// type) or a text node (Label is dtd.TextSymbol and Value holds the text).
// Attributes — which Definition 2.2 also models as nodes — are stored as a
// name→value map since only their string values ever matter.
type Node struct {
	Label    string
	Value    string            // text content; meaningful for text nodes only
	Attrs    map[string]string // attribute values; nil when empty
	Children []*Node           // subelements and text nodes in document order
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
// fluent construction.
func (n *Node) SetAttr(l, v string) *Node {
	if n.Attrs == nil {
		n.Attrs = make(map[string]string)
	}
	n.Attrs[l] = v
	return n
}

// Attr returns the value of attribute l on the node.
func (n *Node) Attr(l string) (string, bool) {
	v, ok := n.Attrs[l]
	return v, ok
}

// AttrNames returns the node's attribute names, sorted.
func (n *Node) AttrNames() []string {
	out := make([]string, 0, len(n.Attrs))
	for a := range n.Attrs {
		out = append(out, a)
	}
	sort.Strings(out)
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
		n += 1 + len(node.Attrs)
		return true
	})
	return n
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	if t == nil || t.Root == nil {
		return &Tree{}
	}
	return &Tree{Root: cloneNode(t.Root)}
}

func cloneNode(n *Node) *Node {
	c := &Node{Label: n.Label, Value: n.Value}
	if len(n.Attrs) > 0 {
		c.Attrs = make(map[string]string, len(n.Attrs))
		for k, v := range n.Attrs {
			c.Attrs[k] = v
		}
	}
	for _, ch := range n.Children {
		c.Children = append(c.Children, cloneNode(ch))
	}
	return c
}

// String renders the tree as indented XML text.
func (t *Tree) String() string {
	return Serialize(t)
}

// Path returns a /-separated element path from the root to the node,
// using child indices for disambiguation, e.g. teachers/teacher[1]/teach[0].
// It returns "" if the node is not in the tree.
func (t *Tree) Path(target *Node) string {
	if t.Root == target {
		return t.Root.Label
	}
	var rec func(n *Node, prefix string) string
	rec = func(n *Node, prefix string) string {
		counts := map[string]int{}
		for _, c := range n.Children {
			idx := counts[c.Label]
			counts[c.Label]++
			p := fmt.Sprintf("%s/%s[%d]", prefix, c.Label, idx)
			if c == target {
				return p
			}
			if found := rec(c, p); found != "" {
				return found
			}
		}
		return ""
	}
	return rec(t.Root, t.Root.Label)
}
