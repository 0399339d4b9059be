package xmltree

import (
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"xic/internal/dtd"
)

func TestExt(t *testing.T) {
	tr := Figure1()
	if got := len(tr.Ext("teacher")); got != 2 {
		t.Errorf("|ext(teacher)| = %d, want 2", got)
	}
	if got := len(tr.Ext("subject")); got != 4 {
		t.Errorf("|ext(subject)| = %d, want 4", got)
	}
	if got := len(tr.Ext("teachers")); got != 1 {
		t.Errorf("|ext(teachers)| = %d, want 1", got)
	}
	if got := len(tr.Ext("nonexistent")); got != 0 {
		t.Errorf("|ext(nonexistent)| = %d, want 0", got)
	}
}

func TestExtAttr(t *testing.T) {
	tr := Figure1()
	names := tr.ExtAttr("teacher", "name")
	if len(names) != 2 || !names["Joe"] || !names["Ann"] {
		t.Errorf("ext(teacher.name) = %v, want {Joe, Ann}", names)
	}
	// Four subject nodes but only two distinct taught_by values: the key
	// subject.taught_by → subject is violated in Figure 1.
	taught := tr.ExtAttr("subject", "taught_by")
	if len(taught) != 2 {
		t.Errorf("|ext(subject.taught_by)| = %d, want 2", len(taught))
	}
}

func TestWalkOrder(t *testing.T) {
	tr := Figure1()
	var order []string
	tr.Walk(func(n *Node) bool {
		order = append(order, n.Label)
		return true
	})
	if order[0] != "teachers" || order[1] != "teacher" || order[2] != "teach" {
		t.Errorf("document order prefix = %v", order[:3])
	}
}

func TestWalkPrune(t *testing.T) {
	tr := Figure1()
	count := 0
	tr.Walk(func(n *Node) bool {
		count++
		return n.Label == "teachers" // descend only below the root
	})
	// Root plus its two teacher children.
	if count != 3 {
		t.Errorf("visited %d nodes with pruning, want 3", count)
	}
}

// TestWalkDeepChain walks, clones and paths a chain far deeper than a
// 1 MB goroutine stack could recurse through: a recursive Walk, Clone or
// Path dies of stack overflow here.
func TestWalkDeepChain(t *testing.T) {
	const depth = 100000
	root := NewElement("a").SetAttr("k", "v")
	n := root
	for i := 1; i < depth; i++ {
		c := NewElement("a").SetAttr("k", "v")
		n.Append(c)
		n = c
	}
	tr := NewTree(root)
	defer debug.SetMaxStack(debug.SetMaxStack(1 << 20))
	visited := 0
	tr.Walk(func(*Node) bool {
		visited++
		return true
	})
	if visited != depth {
		t.Fatalf("Walk visited %d nodes, want %d", visited, depth)
	}
	if got := len(tr.Ext("a")); got != depth {
		t.Fatalf("|ext(a)| = %d, want %d", got, depth)
	}
	if got := tr.Size(); got != 2*depth {
		t.Fatalf("Size = %d, want %d", got, 2*depth)
	}
	if got := tr.Clone().Size(); got != 2*depth {
		t.Fatalf("clone Size = %d, want %d", got, 2*depth)
	}
	if got, want := tr.Path(n), "a"+strings.Repeat("/a[0]", depth-1); got != want {
		t.Fatalf("Path of the deepest node has %d bytes, want %d", len(got), len(want))
	}
}

func TestSizeCountsAttributes(t *testing.T) {
	tr := NewTree(NewElement("a").SetAttr("x", "1").SetAttr("y", "2"))
	if got := tr.Size(); got != 3 {
		t.Errorf("Size = %d, want 3 (element + 2 attribute nodes)", got)
	}
}

// snapshot records every node's label, value, attributes and children.
func snapshot(tr *Tree) map[*Node]Node {
	out := make(map[*Node]Node)
	tr.Walk(func(n *Node) bool {
		out[n] = Node{Label: n.Label, Value: n.Value,
			Children: slices.Clone(n.Children), attrs: slices.Clone(n.attrs)}
		return true
	})
	return out
}

// unchangedBut fails the test when a node of before other than edited
// has changed.
func unchangedBut(t *testing.T, before map[*Node]Node, edited *Node, what string) {
	t.Helper()
	for n, was := range before {
		if n == edited {
			continue
		}
		if n.Label != was.Label || n.Value != was.Value ||
			!slices.Equal(n.Children, was.Children) || !slices.Equal(n.attrs, was.attrs) {
			t.Fatalf("%s changed %s: attributes %v, %d children; was %v, %d children",
				what, n.Label, n.attrs, len(n.Children), was.attrs, len(was.Children))
		}
	}
}

// TestCarvedSlicesIsolated edits nodes whose attribute pairs and child
// lists a Builder or Clone carved next to their neighbours': a new
// attribute, a new child and a new value must each reach their own node
// only.
func TestCarvedSlicesIsolated(t *testing.T) {
	const doc = `<r><a p="1"><x k="1"/><y k="2"/></a><b q="2"><z k="3"/></b><c s="3"/></r>`
	for _, edit := range []struct {
		name string
		node func(*Tree) *Node
		do   func(*Node)
	}{
		{"SetAttr of a new name", func(tr *Tree) *Node { return tr.Root.Children[0] }, func(n *Node) { n.SetAttr("zz", "new") }},
		{"SetAttr before the first name", func(tr *Tree) *Node { return tr.Root.Children[1] }, func(n *Node) { n.SetAttr("a", "new") }},
		{"Append", func(tr *Tree) *Node { return tr.Root.Children[0] }, func(n *Node) { n.Append(NewElement("w")) }},
	} {
		tr, err := ParseString(doc)
		if err != nil {
			t.Fatal(err)
		}
		before := snapshot(tr)
		n := edit.node(tr)
		edit.do(n)
		unchangedBut(t, before, n, edit.name)

		// The same edit on a clone, and a new value for an attribute it
		// has, leave the original whole, and the clone's other nodes too.
		c := tr.Clone()
		orig, copied := snapshot(tr), snapshot(c)
		n = edit.node(c)
		edit.do(n)
		n.SetAttr(n.attrs[0].Name, "changed")
		unchangedBut(t, orig, nil, edit.name+" on a clone")
		unchangedBut(t, copied, n, edit.name+" on a clone")
	}
}

func TestClone(t *testing.T) {
	tr := Figure1()
	c := tr.Clone()
	c.Root.Children[0].SetAttr("name", "Changed")
	if v, _ := tr.Root.Children[0].Attr("name"); v != "Joe" {
		t.Error("Clone shares attributes with the original")
	}
	if tr.Size() != c.Size() {
		t.Errorf("clone size %d != original size %d", c.Size(), tr.Size())
	}
}

func TestPath(t *testing.T) {
	tr := Figure1()
	second := tr.Root.Children[1]
	if got := tr.Path(second); got != "teachers/teacher[1]" {
		t.Errorf("Path = %q, want teachers/teacher[1]", got)
	}
	if got := tr.Path(tr.Root); got != "teachers" {
		t.Errorf("Path(root) = %q", got)
	}
	if got := tr.Path(NewElement("stranger")); got != "" {
		t.Errorf("Path(foreign node) = %q, want empty", got)
	}
}

func TestValidateFigure1(t *testing.T) {
	d := dtd.Teachers()
	if err := NewValidator(d).Validate(Figure1()); err != nil {
		t.Errorf("Figure 1 tree should conform to D1: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	d := dtd.Teachers()
	v := NewValidator(d)

	missingAttr := Figure1()
	teacher := missingAttr.Root.Children[0]
	missingAttr.Root.Children[0] = NewElement(teacher.Label).Append(teacher.Children...)
	if err := v.Validate(missingAttr); err == nil || !strings.Contains(err.Error(), "name") {
		t.Errorf("missing attribute not reported: %v", err)
	}

	extraAttr := Figure1()
	extraAttr.Root.Children[0].SetAttr("bogus", "1")
	if err := v.Validate(extraAttr); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("undeclared attribute not reported: %v", err)
	}

	wrongRoot := NewTree(NewElement("teacher"))
	if err := v.Validate(wrongRoot); err == nil || !strings.Contains(err.Error(), "root") {
		t.Errorf("wrong root not reported: %v", err)
	}

	badSequence := Figure1()
	teach := badSequence.Root.Children[0].Children[0]
	teach.Children = teach.Children[:1] // only one subject
	if err := v.Validate(badSequence); err == nil || !strings.Contains(err.Error(), "content model") {
		t.Errorf("content-model violation not reported: %v", err)
	}

	unknownType := Figure1()
	unknownType.Root.Children[0].Children = append(
		unknownType.Root.Children[0].Children, NewElement("intruder"))
	if err := v.Validate(unknownType); err == nil {
		t.Error("undeclared element type accepted")
	}

	if err := v.Validate(&Tree{}); err == nil {
		t.Error("empty tree accepted")
	}
}

func TestConformsConvenience(t *testing.T) {
	if !Conforms(Figure1(), dtd.Teachers()) {
		t.Error("Conforms should accept Figure 1 against D1")
	}
	if Conforms(Figure1(), dtd.School()) {
		t.Error("Conforms should reject Figure 1 against D3")
	}
}

func TestTextNodesInContentModels(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT note (#PCDATA)>
`)
	good := NewTree(NewElement("note").Append(NewText("hello")))
	if !Conforms(good, d) {
		t.Error("text child should satisfy (#PCDATA)")
	}
	empty := NewTree(NewElement("note"))
	if Conforms(empty, d) {
		t.Error("(#PCDATA) requires exactly one text node in this formalism")
	}
}
