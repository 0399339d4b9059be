// Package gen builds every input of the xicd benchmark from a seed: DTDs,
// constraint text, documents and edit scripts. It imports nothing from the
// program under test, so a change to the program cannot shift the
// workload, and it carries an independent oracle (Check) that the load
// generator uses to re-validate witnesses and counterexamples.
package gen

import (
	"encoding/xml"
	"fmt"
	"io"
	"math/rand/v2"
	"regexp"
	"strings"
)

// Model is a content model in the paper's DTD grammar: Empty, Text, Name,
// Seq, Alt, Star, Plus or Opt.
type Model interface{ dtd() string }

type (
	Empty struct{}
	Text  struct{}
	Name  string
	Seq   []Model
	Alt   []Model
	Star  struct{ M Model }
	Plus  struct{ M Model }
	Opt   struct{ M Model }
)

func (Empty) dtd() string  { return "EMPTY" }
func (Text) dtd() string   { return "(#PCDATA)" }
func (n Name) dtd() string { return string(n) }
func (s Seq) dtd() string  { return "(" + join(s, ", ") + ")" }
func (a Alt) dtd() string  { return "(" + join(a, " | ") + ")" }
func (s Star) dtd() string { return s.M.dtd() + "*" }
func (p Plus) dtd() string { return p.M.dtd() + "+" }
func (o Opt) dtd() string  { return o.M.dtd() + "?" }

func join(ms []Model, sep string) string {
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = m.dtd()
	}
	return strings.Join(parts, sep)
}

// Elem declares one element type.
type Elem struct {
	Name    string
	Content Model
	Attrs   []string
}

// Schema is a generated DTD. The first element is the root.
type Schema struct {
	Name  string
	Elems []Elem

	byName map[string]*Elem
	res    map[string]*regexp.Regexp
}

// NewSchema indexes the declarations; elems[0] is the root.
func NewSchema(name string, elems ...Elem) *Schema {
	s := &Schema{Name: name, Elems: elems, byName: map[string]*Elem{}, res: map[string]*regexp.Regexp{}}
	for i := range s.Elems {
		s.byName[s.Elems[i].Name] = &s.Elems[i]
	}
	syms := map[string]rune{"#PCDATA": 0xE000}
	for i, e := range s.Elems {
		syms[e.Name] = rune(0xE001 + i)
	}
	for _, e := range s.Elems {
		s.res[e.Name] = regexp.MustCompile("^(?:" + pattern(e.Content, syms) + ")$")
	}
	return s
}

// Root is the root element type.
func (s *Schema) Root() string { return s.Elems[0].Name }

// Elem returns the declaration of an element type.
func (s *Schema) Elem(name string) *Elem { return s.byName[name] }

// AttrPairs lists every (type, attribute) pair, in declaration order.
func (s *Schema) AttrPairs() [][2]string {
	var out [][2]string
	for _, e := range s.Elems {
		for _, a := range e.Attrs {
			out = append(out, [2]string{e.Name, a})
		}
	}
	return out
}

// DTD renders the schema as DTD source.
func (s *Schema) DTD() string {
	var b strings.Builder
	for _, e := range s.Elems {
		fmt.Fprintf(&b, "<!ELEMENT %s %s>\n", e.Name, topLevel(e.Content))
		if len(e.Attrs) > 0 {
			fmt.Fprintf(&b, "<!ATTLIST %s", e.Name)
			for _, a := range e.Attrs {
				fmt.Fprintf(&b, " %s CDATA #REQUIRED", a)
			}
			b.WriteString(">\n")
		}
	}
	return b.String()
}

// topLevel renders a content model as a declaration's content spec, which
// must be parenthesized unless it is EMPTY.
func topLevel(m Model) string {
	switch m.(type) {
	case Empty, Text, Seq, Alt:
		return m.dtd()
	}
	return "(" + m.dtd() + ")"
}

// pattern translates a content model into a Go regular expression over
// one private-use rune per element type, so conformance of a child
// sequence is a plain (linear-time) regexp match.
func pattern(m Model, syms map[string]rune) string {
	switch x := m.(type) {
	case Empty:
		return ""
	case Text:
		return string(syms["#PCDATA"])
	case Name:
		return string(syms[string(x)])
	case Seq:
		var b strings.Builder
		for _, c := range x {
			b.WriteString("(?:" + pattern(c, syms) + ")")
		}
		return b.String()
	case Alt:
		parts := make([]string, len(x))
		for i, c := range x {
			parts[i] = "(?:" + pattern(c, syms) + ")"
		}
		return strings.Join(parts, "|")
	case Star:
		return "(?:" + pattern(x.M, syms) + ")*"
	case Plus:
		return "(?:" + pattern(x.M, syms) + ")+"
	case Opt:
		return "(?:" + pattern(x.M, syms) + ")?"
	}
	panic(fmt.Sprintf("gen: unknown content model %T", m))
}

// Kind is a unary constraint form.
type Kind int

const (
	Key Kind = iota
	FK
	Incl
	NotKey
	NotIncl
)

// Con is a unary constraint: T1.A1 -> T1 for keys, T1.A1 ⊆ T2.A2 for the
// inclusion forms.
type Con struct {
	Kind   Kind
	T1, A1 string
	T2, A2 string
}

// String renders the constraint in the program's constraint syntax.
func (c Con) String() string {
	switch c.Kind {
	case Key:
		return fmt.Sprintf("%s.%s -> %s", c.T1, c.A1, c.T1)
	case NotKey:
		return fmt.Sprintf("not %s.%s -> %s", c.T1, c.A1, c.T1)
	case FK:
		return fmt.Sprintf("%s.%s => %s.%s", c.T1, c.A1, c.T2, c.A2)
	case Incl:
		return fmt.Sprintf("%s.%s <= %s.%s", c.T1, c.A1, c.T2, c.A2)
	case NotIncl:
		return fmt.Sprintf("not %s.%s <= %s.%s", c.T1, c.A1, c.T2, c.A2)
	}
	return "?"
}

// Source renders a constraint set, one per line.
func Source(set []Con) string {
	var b strings.Builder
	for _, c := range set {
		b.WriteString(c.String())
		b.WriteString("\n")
	}
	return b.String()
}

// Strings renders a constraint set as a list of constraint strings.
func Strings(set []Con) []string {
	out := make([]string, len(set))
	for i, c := range set {
		out[i] = c.String()
	}
	return out
}

// Sample draws a small random document valid against the schema. An
// attribute that a key of keys constrains holds distinct values, so the
// document satisfies those keys; every other attribute draws from three
// shared values, so that a random constraint holds on the document about
// as often as not. Repetitions stop below depth four, which bounds
// recursive schemas.
func (s *Schema) Sample(keys []Con, rng *rand.Rand) []byte {
	unique := map[[2]string]bool{}
	for _, c := range keys {
		if c.Kind == Key {
			unique[[2]string{c.T1, c.A1}] = true
		}
	}
	var w xmlw
	serial := 0
	var elem func(name string, depth int)
	var expand func(m Model, depth int)
	elem = func(name string, depth int) {
		e := s.Elem(name)
		attrs := make([]string, 0, 2*len(e.Attrs))
		for _, a := range e.Attrs {
			v := "v" + itoa(rng.IntN(3))
			if unique[[2]string{name, a}] {
				v = "u" + itoa(serial)
				serial++
			}
			attrs = append(attrs, a, v)
		}
		w.open(name, attrs...)
		expand(e.Content, depth+1)
		w.close(name)
	}
	expand = func(m Model, depth int) {
		extra := 0
		if depth < 4 {
			extra = rng.IntN(3)
		}
		switch x := m.(type) {
		case Text:
			w.b.WriteString("t")
		case Name:
			elem(string(x), depth)
		case Seq:
			for _, c := range x {
				expand(c, depth)
			}
		case Alt:
			expand(x[rng.IntN(len(x))], depth)
		case Star:
			for ; extra > 0; extra-- {
				expand(x.M, depth)
			}
		case Plus:
			for extra = min(extra, 1); extra >= 0; extra-- {
				expand(x.M, depth)
			}
		case Opt:
			if extra > 0 {
				expand(x.M, depth)
			}
		}
	}
	elem(s.Root(), 0)
	return w.b.Bytes()
}

// node is the oracle's document model: labels, attributes and the child
// label sequence (text runs collapse to one #PCDATA symbol).
type node struct {
	label    string
	attrs    map[string]string
	children []string
}

// Check is the benchmark's own validator: it parses doc, checks it
// against the schema (root, declared types, exact attribute sets, content
// models) and against every constraint of set, and returns the number of
// problems found (0 means valid) and the element count. It shares no code
// with the program, so it serves as an independent oracle for witnesses,
// counterexamples and session documents.
func (s *Schema) Check(doc io.Reader, set []Con) (problems, elements int, err error) {
	dec := xml.NewDecoder(doc)
	var stack []*node
	var all []*node
	var rootSeen bool
	for {
		tok, terr := dec.Token()
		if terr == io.EOF {
			break
		}
		if terr != nil {
			return 0, 0, terr
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &node{label: t.Name.Local, attrs: map[string]string{}}
			for _, a := range t.Attr {
				n.attrs[a.Name.Local] = a.Value
			}
			if len(stack) == 0 {
				if rootSeen {
					return 0, 0, fmt.Errorf("gen: multiple roots")
				}
				rootSeen = true
				if n.label != s.Root() {
					problems++
				}
			} else {
				p := stack[len(stack)-1]
				p.children = append(p.children, n.label)
			}
			stack = append(stack, n)
			all = append(all, n)
		case xml.EndElement:
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 || strings.TrimSpace(string(t)) == "" {
				continue
			}
			p := stack[len(stack)-1]
			if k := len(p.children); k == 0 || p.children[k-1] != "#PCDATA" {
				p.children = append(p.children, "#PCDATA")
			}
		}
	}
	if !rootSeen {
		return 0, 0, fmt.Errorf("gen: no root element")
	}
	syms := map[string]rune{"#PCDATA": 0xE000}
	for i, e := range s.Elems {
		syms[e.Name] = rune(0xE001 + i)
	}
	byType := map[string][]*node{}
	for _, n := range all {
		byType[n.label] = append(byType[n.label], n)
		e := s.Elem(n.label)
		if e == nil {
			problems++
			continue
		}
		if len(n.attrs) != len(e.Attrs) {
			problems++
		} else {
			for _, a := range e.Attrs {
				if _, ok := n.attrs[a]; !ok {
					problems++
				}
			}
		}
		var word []rune
		for _, c := range n.children {
			r, ok := syms[c]
			if !ok {
				r = 0xEFFF
			}
			word = append(word, r)
		}
		if !s.res[n.label].MatchString(string(word)) {
			problems++
		}
	}
	values := func(typ, attr string) map[string]int {
		out := map[string]int{}
		for _, n := range byType[typ] {
			if v, ok := n.attrs[attr]; ok {
				out[v]++
			}
		}
		return out
	}
	for _, c := range set {
		switch c.Kind {
		case Key, NotKey:
			dup := false
			for _, k := range values(c.T1, c.A1) {
				if k > 1 {
					dup = true
				}
			}
			if dup == (c.Kind == Key) {
				problems++
			}
		case FK, Incl, NotIncl:
			parent := values(c.T2, c.A2)
			missing := false
			for v := range values(c.T1, c.A1) {
				if parent[v] == 0 {
					missing = true
				}
			}
			if missing != (c.Kind == NotIncl) {
				problems++
			}
			if c.Kind == FK {
				for _, k := range parent {
					if k > 1 {
						problems++
						break
					}
				}
			}
		}
	}
	return problems, len(all), nil
}
