package xmltree

import (
	"fmt"

	"xic/internal/dtd"
)

// Validator holds the content-model automata of a fixed DTD, compiled by
// NewValidator and read without locks. The document checker
// (internal/doccheck) steps them; Validate is the tests' independent
// oracle for conformance (T ⊨ D, Definition 2.2). It must not be shared
// across mutations of the DTD.
type Validator struct {
	dtd      *dtd.DTD
	automata map[string]*dtd.Automaton
}

// NewValidator compiles the content-model automaton of every element type
// the DTD declares.
func NewValidator(d *dtd.DTD) *Validator {
	v := &Validator{dtd: d, automata: make(map[string]*dtd.Automaton, len(d.Types()))}
	for _, t := range d.Types() {
		v.automata[t] = dtd.Compile(d.Element(t).Content)
	}
	return v
}

// CompileAll does nothing: NewValidator compiles every automaton. It
// remains for its one caller, perfbench/trace/docs.go:32.
func (v *Validator) CompileAll() {}

// Automaton returns the compiled content-model automaton of the element
// type, or nil when the type is not declared.
func (v *Validator) Automaton(label string) *dtd.Automaton {
	return v.automata[label]
}

// DTD returns the DTD the validator checks against.
func (v *Validator) DTD() *dtd.DTD { return v.dtd }

// Validate reports whether the tree conforms to the DTD, returning a
// descriptive error naming the first offending node otherwise.
func (v *Validator) Validate(t *Tree) error {
	if t == nil || t.Root == nil {
		return fmt.Errorf("xmltree: empty tree")
	}
	if t.Root.Label != v.dtd.Root {
		return fmt.Errorf("xmltree: root is %q, DTD requires %q", t.Root.Label, v.dtd.Root)
	}
	return v.validateNode(t, t.Root)
}

func (v *Validator) validateNode(t *Tree, n *Node) error {
	if n.IsText() {
		if len(n.Children) > 0 || len(n.Attrs()) > 0 {
			return fmt.Errorf("xmltree: text node with children or attributes at %s", t.Path(n))
		}
		return nil
	}
	decl := v.dtd.Element(n.Label)
	if decl == nil {
		return fmt.Errorf("xmltree: element type %q at %s is not declared", n.Label, t.Path(n))
	}
	// Attributes: exactly R(τ), each single-valued (SetAttr keeps one
	// value per name; presence of every declared attribute is required).
	for _, l := range decl.Attrs {
		if _, ok := n.Attr(l); !ok {
			return fmt.Errorf("xmltree: element %s lacks required attribute %q", t.Path(n), l)
		}
	}
	if len(n.Attrs()) > len(decl.Attrs) {
		for _, a := range n.Attrs() {
			if !decl.HasAttr(a.Name) {
				return fmt.Errorf("xmltree: element %s has undeclared attribute %q", t.Path(n), a.Name)
			}
		}
	}
	// Children sequence must be in L(P(τ)).
	labels := make([]string, len(n.Children))
	for i, c := range n.Children {
		labels[i] = c.Label
	}
	if !v.automata[n.Label].Match(labels) {
		return fmt.Errorf("xmltree: children of %s do not match content model %s: %v",
			t.Path(n), decl.Content, labels)
	}
	for _, c := range n.Children {
		if err := v.validateNode(t, c); err != nil {
			return err
		}
	}
	return nil
}

// Conforms reports whether the tree conforms to the DTD. It is a one-shot
// convenience around Validator.
func Conforms(t *Tree, d *dtd.DTD) bool {
	return NewValidator(d).Validate(t) == nil
}
