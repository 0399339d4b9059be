package docsession

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"xic/internal/constraint"
	"xic/internal/doccheck"
	"xic/internal/dtd"
	"xic/internal/randgen"
	"xic/internal/xmlscan"
	"xic/internal/xmltree"
)

// FuzzSessionAgreement is the differential oracle for incremental
// revalidation: for a random document and a random edit script, every
// op's session verdict must agree with a full streaming validation of the
// materialized candidate document — an op is accepted iff applying it to
// a shadow copy of the tree yields a document ValidateStream calls clean
// — the session's retained document must stay clean throughout, and its
// kids indexes must match ones rebuilt from the tree.
func FuzzSessionAgreement(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(8))
	f.Add(int64(7), int64(11), uint8(16))
	f.Add(int64(42), int64(0), uint8(4))
	f.Add(int64(3), int64(5), uint8(31))
	f.Add(int64(9), int64(13), uint8(31))
	f.Fuzz(func(t *testing.T, docSeed, editSeed int64, nOps uint8) {
		d, sigma, doc := fuzzDocument(t, docSeed)
		ck, v := fuzzChecker(d, sigma)
		s, err := Open(context.Background(), ck, v, strings.NewReader(doc))
		if err != nil {
			// The generated base document may be invalid under the random
			// constraint set; nothing to differentiate then.
			if _, ok := err.(*InvalidDocumentError); ok {
				t.Skip("base document invalid under random constraints")
			}
			t.Fatalf("open: %v", err)
		}

		rng := rand.New(rand.NewSource(editSeed))
		n := int(nOps%32) + 1
		scriptTree, err := xmltree.ParseString(doc)
		if err != nil {
			t.Fatalf("reparse base: %v", err)
		}
		ops := RandomScript(rng, d, scriptTree, n)
		for i := range ops {
			// Text that is white space only outside XML's S production
			// must stay text, for the session and the parsers alike.
			if ops[i].Kind == OpSetText && rng.Intn(4) == 0 {
				ops[i].Value = nonXMLSpace[rng.Intn(len(nonXMLSpace))]
			}
		}

		for i, op := range ops {
			shadow, applicable := shadowApply(s.Document(), op)
			res := s.Apply(op)
			accepted := res.Rejected == nil

			if !applicable {
				if accepted {
					t.Fatalf("op %d %+v: session accepted an op the shadow cannot apply", i, op)
				}
			} else {
				rep, err := ck.Run(context.Background(), strings.NewReader(shadow))
				shadowOK := err == nil && rep.OK()
				if accepted != shadowOK {
					t.Fatalf("op %d %+v: session accepted=%v, full restream of candidate says ok=%v\ncandidate:\n%s",
						i, op, accepted, shadowOK, shadow)
				}
			}

			// The kids indexes describe the tree as it now is.
			checkKids(t, s)

			// The session invariant: its retained document is always clean.
			rep, err := ck.Run(context.Background(), strings.NewReader(s.Document()))
			if err != nil || !rep.OK() {
				t.Fatalf("op %d %+v (accepted=%v): session document fails full validation: %v %v\ndoc:\n%s",
					i, op, accepted, err, rep, s.Document())
			}
			if accepted {
				if got := countShadowElements(t, s.Document()); got != res.Elements {
					t.Fatalf("op %d: ApplyResult.Elements=%d, document has %d", i, res.Elements, got)
				}
			}
		}
	})
}

// nonXMLSpace are values strings.TrimSpace would empty but XML's S
// production does not: no-break space, em space, next line.
var nonXMLSpace = []string{"\u00a0", "\u2003", "\u0085", " \u00a0 "}

// fuzzDocument derives a deterministic specification and valid base
// document from the seed. Even seeds use the constraint-rich lib family
// (keys and foreign keys, bases valid by construction); odd multiples of
// three the wide family; other odd seeds a random DTD with no
// constraints, exercising structural and content-model agreement on
// arbitrary shapes.
func fuzzDocument(t *testing.T, seed int64) (*dtd.DTD, []constraint.Constraint, string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	if seed%2 == 0 {
		d, err := dtd.Parse(libDTD)
		if err != nil {
			t.Fatalf("lib dtd: %v", err)
		}
		sigma, err := constraint.Parse(libSigma)
		if err != nil {
			t.Fatalf("lib sigma: %v", err)
		}
		var b strings.Builder
		b.WriteString("<lib>")
		k := 2 + rng.Intn(6)
		for i := 0; i < k; i++ {
			fmt.Fprintf(&b, `<grp id="g%d" tag="t%d">`, i, rng.Intn(3))
			for j := rng.Intn(3); j > 0; j-- {
				fmt.Fprintf(&b, "<item>x%d</item>", rng.Intn(5))
			}
			b.WriteString("</grp>")
		}
		for i := rng.Intn(5); i > 0; i-- {
			fmt.Fprintf(&b, `<ref to="g%d"/>`, rng.Intn(k))
		}
		b.WriteString("</lib>")
		return d, sigma, b.String()
	}
	if seed%3 == 0 {
		return wideDocument(t, rng)
	}
	d := randgen.RandDTD(rng, randgen.DTDSpec{Types: 3 + rng.Intn(4), Depth: 2, AttrsPer: 2})
	var buf bytes.Buffer
	if _, err := randgen.WriteDocument(&buf, d, rng, randgen.DocSpec{TargetNodes: 30 + rng.Intn(40)}); err != nil {
		t.Skipf("document generation: %v", err)
	}
	return d, nil, buf.String()
}

// wideDTD puts wide parents under content models where one edit in the
// middle changes the automaton's position set after many of the children
// that follow it. In g, the set after a child records whether the run may
// have passed the mandatory a yet: inserting an a before a run of b, or
// deleting one, changes the set after every b up to the next a. In e, it
// records the parity of the children so far, so every insert and delete
// changes it after all the children that follow. In m, deleting an
// element between two text runs merges them.
const wideDTD = `
<!ELEMENT r (g | e | m)+>
<!ELEMENT g ((a | b)*, a, (a | b)*)>
<!ELEMENT e (((a | b), (a | b))*, (a | b)?)>
<!ELEMENT m (#PCDATA | a | b)*>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
`

// wideDocument builds a base document of the wide family: two to four g,
// e and m parents of 9 to 30 children each, mostly b, so runs of b
// between the a children are long.
func wideDocument(t *testing.T, rng *rand.Rand) (*dtd.DTD, []constraint.Constraint, string) {
	t.Helper()
	d, err := dtd.Parse(wideDTD)
	if err != nil {
		t.Fatalf("wide dtd: %v", err)
	}
	leaf := func() string {
		if rng.Intn(6) == 0 {
			return "<a/>"
		}
		return "<b/>"
	}
	var b strings.Builder
	b.WriteString("<r>")
	for i := 2 + rng.Intn(3); i > 0; i-- {
		n := 9 + rng.Intn(22)
		switch rng.Intn(3) {
		case 0:
			b.WriteString("<g>")
			at := rng.Intn(n) // the mandatory a
			for j := 0; j < n; j++ {
				if j == at {
					b.WriteString("<a/>")
				} else {
					b.WriteString(leaf())
				}
			}
			b.WriteString("</g>")
		case 1:
			b.WriteString("<e>")
			for j := 0; j < n; j++ {
				b.WriteString(leaf())
			}
			b.WriteString("</e>")
		default:
			b.WriteString("<m>")
			text := false
			for j := 0; j < n; j++ {
				if !text && rng.Intn(3) == 0 {
					fmt.Fprintf(&b, "t%d", rng.Intn(9))
					text = true
					continue
				}
				b.WriteString(leaf())
				text = false
			}
			b.WriteString("</m>")
		}
	}
	b.WriteString("</r>")
	return d, nil, b.String()
}

func fuzzChecker(d *dtd.DTD, sigma []constraint.Constraint) (*doccheck.Checker, *xmltree.Validator) {
	v := xmltree.NewValidator(d)
	v.CompileAll()
	return doccheck.New(d, v, sigma), v
}

// shadowApply applies op to an independently parsed copy of the document
// with plain tree surgery — no session machinery — and returns the
// serialized result. applicable is false when the op does not even
// resolve structurally (bad path, bad index, unparseable XML); the
// session must reject those too.
func shadowApply(doc string, op EditOp) (out string, applicable bool) {
	tr, err := xmltree.ParseString(doc)
	if err != nil {
		return "", false
	}
	n, parent, slot := shadowResolve(tr, op.Path)
	if n == nil || n.IsText() {
		return "", false
	}
	switch op.Kind {
	case OpSetAttr:
		if _, ok := n.Attr(op.Attr); !ok {
			return "", false
		}
		n.SetAttr(op.Attr, op.Value)
	case OpSetText:
		for _, c := range n.Children {
			if !c.IsText() {
				return "", false
			}
		}
		if xmlscan.IsSpace(op.Value) {
			n.Children = nil
		} else {
			n.Children = []*xmltree.Node{xmltree.NewText(op.Value)}
		}
	case OpInsertSubtree:
		if op.Index < 0 || op.Index > len(n.Children) {
			return "", false
		}
		sub, err := xmltree.ParseString(op.XML)
		if err != nil {
			return "", false
		}
		kids := append([]*xmltree.Node{}, n.Children[:op.Index]...)
		kids = append(kids, sub.Root)
		kids = append(kids, n.Children[op.Index:]...)
		n.Children = kids
	case OpDeleteSubtree:
		if parent == nil {
			return "", false
		}
		parent.Children = append(parent.Children[:slot], parent.Children[slot+1:]...)
	default:
		return "", false
	}
	return xmltree.Serialize(tr), true
}

// shadowResolve is an independent Tree.Path walker (the test's own, so
// the session's resolver is under test, not trusted).
func shadowResolve(tr *xmltree.Tree, path string) (n, parent *xmltree.Node, slot int) {
	segs := strings.Split(path, "/")
	if len(segs) == 0 || segs[0] != tr.Root.Label {
		return nil, nil, 0
	}
	n, parent, slot = tr.Root, nil, -1
	for _, seg := range segs[1:] {
		open := strings.IndexByte(seg, '[')
		if open <= 0 || !strings.HasSuffix(seg, "]") {
			return nil, nil, 0
		}
		label := seg[:open]
		digits := seg[open+1 : len(seg)-1]
		if digits == "" {
			return nil, nil, 0
		}
		idx, err := strconv.Atoi(digits)
		if err != nil || strings.TrimLeft(digits, "0123456789") != "" {
			return nil, nil, 0 // not decimal digits, or too large for an int
		}
		var found *xmltree.Node
		foundSlot := -1
		seen := 0
		for i, c := range n.Children {
			if c.Label != label {
				continue
			}
			if seen == idx {
				found, foundSlot = c, i
				break
			}
			seen++
		}
		if found == nil {
			return nil, nil, 0
		}
		parent, n, slot = n, found, foundSlot
	}
	return n, parent, slot
}

func countShadowElements(t *testing.T, doc string) int {
	t.Helper()
	tr, err := xmltree.ParseString(doc)
	if err != nil {
		t.Fatalf("parse session doc: %v", err)
	}
	count := 0
	tr.Walk(func(n *xmltree.Node) bool {
		if !n.IsText() {
			count++
		}
		return true
	})
	return count
}
