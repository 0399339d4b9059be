package dtd

import (
	"fmt"
	"sort"
	"strings"
)

// Element is one element type declaration: its content model P(τ) and its
// attribute set R(τ). Attributes are single-valued strings (Definition 2.1);
// every element of the type carries exactly one value for each attribute.
type Element struct {
	Name    string
	Content Regex
	Attrs   []string // declaration order, duplicates rejected by AddAttr

	attrTypes map[string]string // XML attribute type (ID, IDREF, …); "" = CDATA
}

// AttrType returns the declared XML type of attribute l (ID, IDREF,
// NMTOKEN, …), defaulting to CDATA. The paper ignores attribute typing —
// all attributes are single-valued strings — but the ID/IDREF information
// is retained so the unary keys and foreign keys that ID/IDREF denote can
// be derived (see constraint.FromIDAttributes).
func (e *Element) AttrType(l string) string {
	if t, ok := e.attrTypes[l]; ok && t != "" {
		return t
	}
	return "CDATA"
}

// setAttrType records the XML type of an attribute.
func (e *Element) setAttrType(l, typ string) {
	if e.attrTypes == nil {
		e.attrTypes = make(map[string]string)
	}
	e.attrTypes[l] = typ
}

// HasAttr reports whether l ∈ R(τ).
func (e *Element) HasAttr(l string) bool {
	for _, a := range e.Attrs {
		if a == l {
			return true
		}
	}
	return false
}

// DTD is a document type definition D = (E, A, P, R, r) per Definition 2.1.
// E is the set of declared element types, A the union of their attribute
// sets, P the content-model mapping, R the attribute mapping and Root the
// element type r of the document root.
type DTD struct {
	Root  string
	elems map[string]*Element
	order []string // element declaration order, for deterministic iteration
}

// New returns a DTD with the given root element type. The root must still be
// declared with AddElement before the DTD passes Check.
func New(root string) *DTD {
	return &DTD{Root: root, elems: make(map[string]*Element)}
}

// AddElement declares element type name with content model content,
// replacing any previous declaration of the same name. The content model may
// reference element types that are declared later.
func (d *DTD) AddElement(name string, content Regex) *Element {
	if e, ok := d.elems[name]; ok {
		e.Content = content
		return e
	}
	e := &Element{Name: name, Content: content}
	d.elems[name] = e
	d.order = append(d.order, name)
	return e
}

// AddAttr declares attribute l for element type name, declaring the element
// with EMPTY content first if it does not exist. Duplicate attribute
// declarations are ignored.
func (d *DTD) AddAttr(name, l string) {
	d.AddTypedAttr(name, l, "CDATA")
}

// AddTypedAttr is AddAttr recording an XML attribute type (ID, IDREF, …).
func (d *DTD) AddTypedAttr(name, l, typ string) {
	e, ok := d.elems[name]
	if !ok {
		e = d.AddElement(name, Empty{})
	}
	if !e.HasAttr(l) {
		e.Attrs = append(e.Attrs, l)
	}
	e.setAttrType(l, typ)
}

// Element returns the declaration of the given element type, or nil.
func (d *DTD) Element(name string) *Element {
	return d.elems[name]
}

// Types returns the element type names in declaration order.
func (d *DTD) Types() []string {
	out := make([]string, len(d.order))
	copy(out, d.order)
	return out
}

// Attributes returns the set A of all attribute names, sorted.
func (d *DTD) Attributes() []string {
	set := map[string]bool{}
	for _, n := range d.order {
		for _, a := range d.elems[n].Attrs {
			set[a] = true
		}
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Size returns a measure of the DTD size: the total number of regex nodes
// across all content models plus the number of attribute declarations.
func (d *DTD) Size() int {
	n := 0
	for _, name := range d.order {
		e := d.elems[name]
		n += regexSize(e.Content) + len(e.Attrs) + 1
	}
	return n
}

func regexSize(r Regex) int {
	switch x := r.(type) {
	case Seq:
		n := 1
		for _, it := range x.Items {
			n += regexSize(it)
		}
		return n
	case Alt:
		n := 1
		for _, it := range x.Items {
			n += regexSize(it)
		}
		return n
	case Star:
		return 1 + regexSize(x.Inner)
	case Plus:
		return 1 + regexSize(x.Inner)
	case Opt:
		return 1 + regexSize(x.Inner)
	default:
		return 1
	}
}

// Clone returns a deep copy of the DTD structure. Content models are
// immutable values and are shared.
func (d *DTD) Clone() *DTD {
	c := New(d.Root)
	for _, name := range d.order {
		e := d.elems[name]
		ce := c.AddElement(name, e.Content)
		ce.Attrs = append([]string(nil), e.Attrs...)
		for l, t := range e.attrTypes {
			ce.setAttrType(l, t)
		}
	}
	return c
}

// Check validates that the DTD is well formed under the conventions of
// Definition 2.1:
//
//   - the root element type is declared;
//   - every element type referenced in a content model is declared;
//   - the root does not occur in any content model (the paper assumes this
//     w.l.o.g.; the cardinality encoding of Section 4 relies on it);
//   - every declared element type is connected to the root;
//   - no name serves as both an element type and an attribute (E ∩ A = ∅);
//   - the reserved text symbol is not used as an element type or attribute;
//   - no content model has more than MaxPositions positions, which bounds
//     the memory its automaton takes.
func (d *DTD) Check() error {
	if d.Root == "" {
		return fmt.Errorf("dtd: no root element type")
	}
	if _, ok := d.elems[d.Root]; !ok {
		return fmt.Errorf("dtd: root element type %q is not declared", d.Root)
	}
	attrNames := map[string]bool{}
	for _, name := range d.order {
		if name == TextSymbol {
			return fmt.Errorf("dtd: %q is reserved for text content", TextSymbol)
		}
		e := d.elems[name]
		for _, a := range e.Attrs {
			if a == TextSymbol {
				return fmt.Errorf("dtd: attribute name %q is reserved", TextSymbol)
			}
			attrNames[a] = true
		}
		if positions(e.Content, MaxPositions) > MaxPositions {
			return fmt.Errorf("dtd: the content model of %q has more than %d positions (x+ counts twice x)", name, MaxPositions)
		}
		for _, ref := range Names(e.Content) {
			if _, ok := d.elems[ref]; !ok {
				return fmt.Errorf("dtd: element type %q references undeclared type %q", name, ref)
			}
			if ref == d.Root {
				return fmt.Errorf("dtd: root element type %q occurs in the content model of %q", d.Root, name)
			}
		}
	}
	for _, name := range d.order {
		if attrNames[name] {
			return fmt.Errorf("dtd: name %q is used both as an element type and as an attribute", name)
		}
	}
	if unreachable := d.unreachableTypes(); len(unreachable) > 0 {
		return fmt.Errorf("dtd: element types not connected to the root: %s", strings.Join(unreachable, ", "))
	}
	return nil
}

// unreachableTypes returns declared element types not connected to the root,
// in declaration order.
func (d *DTD) unreachableTypes() []string {
	if _, ok := d.elems[d.Root]; !ok {
		return nil
	}
	seen := map[string]bool{d.Root: true}
	queue := []string{d.Root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, ref := range Names(d.elems[cur].Content) {
			if _, ok := d.elems[ref]; ok && !seen[ref] {
				seen[ref] = true
				queue = append(queue, ref)
			}
		}
	}
	var out []string
	for _, name := range d.order {
		if !seen[name] {
			out = append(out, name)
		}
	}
	return out
}

// String renders the DTD in XML DTD syntax, one declaration per line, with
// element declarations in declaration order followed by their ATTLISTs.
func (d *DTD) String() string {
	var b strings.Builder
	for _, name := range d.order {
		e := d.elems[name]
		content := e.Content.String()
		switch e.Content.(type) {
		case Empty:
			// EMPTY keyword stands alone.
		case Text:
			content = "(" + content + ")"
		default:
			content = "(" + content + ")"
		}
		fmt.Fprintf(&b, "<!ELEMENT %s %s>\n", name, content)
		for _, a := range e.Attrs {
			fmt.Fprintf(&b, "<!ATTLIST %s %s %s #REQUIRED>\n", name, a, e.AttrType(a))
		}
	}
	return b.String()
}
