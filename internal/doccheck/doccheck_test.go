package doccheck

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"xic/internal/constraint"
	"xic/internal/dtd"
	"xic/internal/xmltree"
)

// newChecker compiles a checker from textual DTD and constraint sources.
func newChecker(t testing.TB, dtdSrc, consSrc string) *Checker {
	t.Helper()
	d, err := dtd.Parse(dtdSrc)
	if err != nil {
		t.Fatalf("dtd: %v", err)
	}
	var sigma []constraint.Constraint
	if consSrc != "" {
		sigma, err = constraint.Parse(consSrc)
		if err != nil {
			t.Fatalf("constraints: %v", err)
		}
		if err := constraint.ValidateSet(d, sigma); err != nil {
			t.Fatalf("validate set: %v", err)
		}
	}
	v := xmltree.NewValidator(d)
	v.CompileAll()
	return New(d, v, sigma)
}

const dbDTD = `
<!ELEMENT db (rec*, ref*)>
<!ELEMENT rec EMPTY>
<!ELEMENT ref EMPTY>
<!ATTLIST rec id CDATA #REQUIRED>
<!ATTLIST rec grp CDATA #REQUIRED>
<!ATTLIST ref to CDATA #REQUIRED>
`

func mustRun(t *testing.T, c *Checker, doc string) *Report {
	t.Helper()
	rep, err := c.Run(context.Background(), strings.NewReader(doc))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

func TestStreamKeyViolation(t *testing.T) {
	c := newChecker(t, dbDTD, "rec.id -> rec")
	rep := mustRun(t, c, `<db><rec id="1" grp="a"/><rec id="2" grp="a"/></db>`)
	if !rep.OK() {
		t.Fatalf("distinct ids flagged: %v", rep.Violations)
	}
	rep = mustRun(t, c, "<db>\n<rec id=\"1\" grp=\"a\"/>\n<rec id=\"1\" grp=\"b\"/>\n</db>")
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %v, want exactly one", rep.Violations)
	}
	v := rep.Violations[0]
	if v.Constraint == nil || v.Constraint.String() != "rec.id -> rec" {
		t.Errorf("violation constraint = %v", v.Constraint)
	}
	if v.Line != 3 {
		t.Errorf("violation line = %d, want 3 (the duplicating element)", v.Line)
	}
	if v.Path != "db/rec[1]" {
		t.Errorf("violation path = %q, want db/rec[1]", v.Path)
	}
	if !strings.Contains(v.Msg, "line 2") {
		t.Errorf("violation should name the first occurrence's line: %q", v.Msg)
	}
}

func TestStreamForeignKeyForwardReference(t *testing.T) {
	c := newChecker(t, dbDTD, "ref.to => rec.id")
	// The referencing element precedes the referenced one: the index
	// resolves at end-of-document, so this must be valid. (Document order
	// is ref-after-rec in the DTD, so flip the DTD order instead.)
	c2 := newChecker(t, `
<!ELEMENT db (ref*, rec*)>
<!ELEMENT rec EMPTY>
<!ELEMENT ref EMPTY>
<!ATTLIST rec id CDATA #REQUIRED>
<!ATTLIST ref to CDATA #REQUIRED>
`, "ref.to => rec.id")
	rep := mustRun(t, c2, `<db><ref to="7"/><rec id="7"/></db>`)
	if !rep.OK() {
		t.Fatalf("forward reference flagged: %v", rep.Violations)
	}
	// Dangling reference.
	rep = mustRun(t, c, `<db><rec id="7" grp="a"/><ref to="8"/></db>`)
	if rep.OK() {
		t.Fatal("dangling ref.to accepted")
	}
	// Duplicate key on the referenced side.
	rep = mustRun(t, c, `<db><rec id="7" grp="a"/><rec id="7" grp="b"/><ref to="7"/></db>`)
	if rep.OK() {
		t.Fatal("foreign key with duplicate parent key accepted")
	}
}

func TestStreamInclusionAndNegations(t *testing.T) {
	c := newChecker(t, dbDTD, "ref.to <= rec.grp")
	if rep := mustRun(t, c, `<db><rec id="1" grp="a"/><rec id="2" grp="a"/><ref to="a"/></db>`); !rep.OK() {
		t.Fatalf("satisfied inclusion flagged: %v", rep.Violations)
	}
	if rep := mustRun(t, c, `<db><rec id="1" grp="a"/><ref to="b"/></db>`); rep.OK() {
		t.Fatal("unmatched inclusion value accepted")
	}

	nk := newChecker(t, dbDTD, "not rec.grp -> rec")
	if rep := mustRun(t, nk, `<db><rec id="1" grp="a"/><rec id="2" grp="a"/></db>`); !rep.OK() {
		t.Fatalf("witnessed negated key flagged: %v", rep.Violations)
	}
	if rep := mustRun(t, nk, `<db><rec id="1" grp="a"/><rec id="2" grp="b"/></db>`); rep.OK() {
		t.Fatal("unwitnessed negated key accepted")
	}

	ni := newChecker(t, dbDTD, "not ref.to <= rec.id")
	if rep := mustRun(t, ni, `<db><rec id="1" grp="a"/><ref to="9"/></db>`); !rep.OK() {
		t.Fatalf("witnessed negated inclusion flagged: %v", rep.Violations)
	}
	if rep := mustRun(t, ni, `<db><rec id="1" grp="a"/><ref to="1"/></db>`); rep.OK() {
		t.Fatal("fully-matched negated inclusion accepted")
	}
	// No ref elements at all: the inclusion holds vacuously, so its
	// negation is violated — matching constraint.Satisfied.
	if rep := mustRun(t, ni, `<db><rec id="1" grp="a"/></db>`); rep.OK() {
		t.Fatal("vacuously-holding inclusion's negation accepted")
	}
}

func TestStreamConformanceViolations(t *testing.T) {
	c := newChecker(t, `
<!ELEMENT r (a, b?)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b EMPTY>
<!ATTLIST b k CDATA #REQUIRED>
`, "")
	cases := []struct {
		name, doc, want string
	}{
		{"wrong root", `<x/>`, "root is"},
		{"undeclared type", `<r><a>t</a><c/></r>`, "not declared"},
		{"missing required attr", `<r><a>t</a><b/></r>`, "lacks required attribute"},
		{"undeclared attr", `<r><a>t</a><b k="1" z="2"/></r>`, "undeclared attribute"},
		{"bad child order", `<r><b k="1"/><a>t</a></r>`, "do not match content model"},
		{"incomplete sequence", `<r/>`, "incomplete"},
		{"unexpected text", `<r>stray<a>t</a></r>`, "unexpected text content"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := mustRun(t, c, tc.doc)
			if rep.OK() {
				t.Fatalf("document accepted: %s", tc.doc)
			}
			found := false
			for _, v := range rep.Violations {
				if strings.Contains(v.Msg, tc.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("no violation mentions %q: %v", tc.want, rep.Violations)
			}
		})
	}
	if rep := mustRun(t, c, `<r><a>text</a><b k="1"/></r>`); !rep.OK() {
		t.Fatalf("valid document flagged: %v", rep.Violations)
	}
}

func TestStreamHardErrors(t *testing.T) {
	c := newChecker(t, dbDTD, "")
	for _, doc := range []string{
		``,
		`<db/><db/>`,
		`<db/>stray`,
		`<db><rec id="1" grp="a">`,
		`<db><rec a:id="1" b:id="2" grp="g"/></db>`,
	} {
		if _, err := c.Run(context.Background(), strings.NewReader(doc)); err == nil {
			t.Errorf("Run(%q) succeeded, want hard error", doc)
		}
	}
}

func TestStreamCancellation(t *testing.T) {
	c := newChecker(t, dbDTD, "")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var b strings.Builder
	b.WriteString("<db>")
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&b, `<rec id="%d" grp="g"/>`, i)
	}
	b.WriteString("</db>")
	if _, err := c.Run(ctx, strings.NewReader(b.String())); err == nil {
		t.Fatal("cancelled Run succeeded")
	}
}

func TestStreamViolationCap(t *testing.T) {
	c := newChecker(t, dbDTD, "rec.id -> rec")
	var b strings.Builder
	b.WriteString("<db>")
	for i := 0; i < 2*MaxViolations; i++ {
		b.WriteString(`<rec id="same" grp="g"/>`)
	}
	b.WriteString("</db>")
	rep := mustRun(t, c, b.String())
	if len(rep.Violations) != MaxViolations || !rep.Truncated {
		t.Fatalf("violations = %d truncated = %v, want %d/true", len(rep.Violations), rep.Truncated, MaxViolations)
	}
	if rep.OK() {
		t.Fatal("truncated report lost the verdict")
	}
}

// TestPassMemoryFollowsTheDocument bounds what one pass allocates by the
// document's size: the open-element stack may cost a constant per level,
// but nothing may grow with the number of types the DTD declares or with
// the number of distinct undeclared names seen so far.
func TestPassMemoryFollowsTheDocument(t *testing.T) {
	const depth = 3000
	// 10,000 types hang off 100 group types, so that no content model
	// has more than dtd.MaxPositions positions.
	var types, alts strings.Builder
	for g := 0; g < 100; g++ {
		fmt.Fprintf(&alts, "|g%d", g)
		var members strings.Builder
		for i := 100 * g; i < 100*(g+1); i++ {
			fmt.Fprintf(&types, "<!ELEMENT t%d EMPTY>\n", i)
			fmt.Fprintf(&members, "|t%d", i)
		}
		fmt.Fprintf(&types, "<!ELEMENT g%d (%s)*>\n", g, members.String()[1:])
	}
	many := "<!ELEMENT r (n, (" + alts.String()[1:] + ")*)>\n<!ELEMENT n (n?)>\n" + types.String()
	nested := func(open, close func(i int) string) string {
		var b strings.Builder
		for i := 0; i < depth; i++ {
			b.WriteString(open(i))
		}
		for i := depth - 1; i >= 0; i-- {
			b.WriteString(close(i))
		}
		return b.String()
	}
	for _, tc := range []struct {
		name, dtd, doc string
		valid          bool
	}{
		{"many declared types", many, "<r>" + nested(
			func(int) string { return "<n>" },
			func(int) string { return "</n>" }) + "</r>", true},
		{"distinct undeclared names", dbDTD, nested(
			func(i int) string { return fmt.Sprintf("<a%d>", i) },
			func(i int) string { return fmt.Sprintf("</a%d>", i) }), false},
		{"one element among many types", many, "<r><n/></r>", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newChecker(t, tc.dtd, "")
			run := func() {
				rep := mustRun(t, c, tc.doc)
				if rep.OK() != tc.valid {
					t.Fatalf("valid = %v, want %v", rep.OK(), tc.valid)
				}
			}
			run() // fetch the automata
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*len(tc.doc)+64<<10); got > limit {
				t.Fatalf("pass over a %d-byte document allocated %d bytes, want at most %d", len(tc.doc), got, limit)
			}
		})
	}
}

// checkAgreement asserts that the stream pass over doc, the tree pass
// over its parsed tree and the oracle (xmltree.Validator and
// constraint.Satisfied) agree: on whether doc parses, on whether it is
// valid, and — for the tree pass — on whether the tree conforms to the
// DTD and which constraint of Σ it violates first.
func checkAgreement(t *testing.T, c *Checker, doc string) {
	t.Helper()
	tr, treeErr := xmltree.Parse(strings.NewReader(doc))
	rep, streamErr := c.Run(context.Background(), strings.NewReader(doc))
	if (treeErr == nil) != (streamErr == nil) {
		t.Fatalf("parse verdicts differ: tree=%v stream=%v on:\n%s", treeErr, streamErr, doc)
	}
	if treeErr != nil {
		return
	}
	conformErr := xmltree.NewValidator(c.d).Validate(tr)
	violated := -1 // the oracle's first violated constraint, by index in Σ
	for i, con := range c.sigma {
		if conformErr == nil && !constraint.Satisfied(tr, con) {
			violated = i
			break
		}
	}
	oracleValid := conformErr == nil && violated < 0
	if rep.OK() != oracleValid {
		t.Fatalf("validity verdicts differ: oracle=%v stream=%v on:\n%s", oracleValid, rep.OK(), doc)
	}
	first, treeErr := c.RunTree(context.Background(), tr)
	if (treeErr == nil) != (conformErr == nil) {
		t.Fatalf("conformance verdicts differ: oracle %v, tree pass %v on:\n%s", conformErr, treeErr, doc)
	}
	if first != violated {
		t.Fatalf("first violated constraint: oracle #%d, tree pass #%d of %v on:\n%s", violated, first, c.sigma, doc)
	}
}

// TestStreamMatchesTreeOnFigure1 pins the paper's own example.
func TestStreamMatchesTreeOnFigure1(t *testing.T) {
	d := dtd.Teachers()
	v := xmltree.NewValidator(d)
	v.CompileAll()
	c := New(d, v, constraint.Sigma1())
	doc := xmltree.Serialize(xmltree.Figure1())
	checkAgreement(t, c, doc)
	rep := mustRun(t, c, doc)
	if rep.OK() {
		t.Fatal("Figure 1 must violate Σ1")
	}
}

// TestStreamMatchesTreeRandomized drives randomly grown and randomly
// corrupted documents through both paths and requires identical verdicts.
func TestStreamMatchesTreeRandomized(t *testing.T) {
	c := newChecker(t, `
<!ELEMENT db (grp+)>
<!ELEMENT grp (rec*, ref*)>
<!ELEMENT rec (#PCDATA)>
<!ELEMENT ref EMPTY>
<!ATTLIST grp name CDATA #REQUIRED>
<!ATTLIST rec id CDATA #REQUIRED>
<!ATTLIST ref to CDATA #REQUIRED>
`, "rec.id -> rec\nref.to => rec.id\ngrp.name -> grp")
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		var b strings.Builder
		b.WriteString("<db>")
		groups := 1 + rng.Intn(3)
		for g := 0; g < groups; g++ {
			fmt.Fprintf(&b, `<grp name="g%d">`, rng.Intn(4))
			for r := 0; r < rng.Intn(4); r++ {
				fmt.Fprintf(&b, `<rec id="i%d">text</rec>`, rng.Intn(6))
			}
			for r := 0; r < rng.Intn(3); r++ {
				fmt.Fprintf(&b, `<ref to="i%d"/>`, rng.Intn(8))
			}
			b.WriteString("</grp>")
		}
		b.WriteString("</db>")
		doc := b.String()
		if rng.Intn(3) == 0 {
			// Corrupt the document: drop a random slice of bytes.
			i := rng.Intn(len(doc))
			j := i + 1 + rng.Intn(10)
			if j > len(doc) {
				j = len(doc)
			}
			doc = doc[:i] + doc[j:]
		}
		checkAgreement(t, c, doc)
	}
}

// FuzzStreamMatchesTree requires verdict agreement between the streaming
// checker and the tree pipeline on arbitrary byte inputs.
func FuzzStreamMatchesTree(f *testing.F) {
	f.Add(`<db><rec id="1" grp="a"/><ref to="a"/></db>`)
	f.Add(`<db><rec id="1" grp="a"/><rec id="1" grp="b"/></db>`)
	f.Add(`<db>`)
	f.Add(`<db/><db/>`)
	f.Add("<db>\n  <rec id=\"1\" grp=\"a\"/>\n</db>")
	d, err := dtd.Parse(dbDTD)
	if err != nil {
		f.Fatal(err)
	}
	sigma := constraint.MustParse("rec.id -> rec\nref.to <= rec.grp\nnot rec.grp -> rec")
	v := xmltree.NewValidator(d)
	v.CompileAll()
	c := New(d, v, sigma)
	f.Fuzz(func(t *testing.T, doc string) {
		checkAgreement(t, c, doc)
	})
}

// TestTreePass covers what only a tree can express: text nodes that carry
// attributes or children, adjacent text nodes (one #PCDATA step each),
// empty trees and cancellation.
func TestTreePass(t *testing.T) {
	c := newChecker(t, `
<!ELEMENT r (t, u*)>
<!ELEMENT t (#PCDATA, #PCDATA)>
<!ELEMENT u EMPTY>
<!ATTLIST u k CDATA #REQUIRED>
`, "u.k -> u")
	two := func() *xmltree.Tree {
		return xmltree.NewTree(xmltree.NewElement("r").Append(
			xmltree.NewElement("t").Append(xmltree.NewText("a"), xmltree.NewText("b"))))
	}
	if first, err := c.RunTree(context.Background(), two()); err != nil || first >= 0 {
		t.Fatalf("two text nodes under (#PCDATA, #PCDATA): %v, violates #%d", err, first)
	}
	bad := two()
	bad.Root.Children[0].Children[1].SetAttr("k", "1")
	if _, err := c.RunTree(context.Background(), bad); err == nil || !strings.Contains(err.Error(), "text node") {
		t.Fatalf("text node with an attribute: %v", err)
	}
	bad = two()
	bad.Root.Children[0].Children[0].Append(xmltree.NewElement("u").SetAttr("k", "1"))
	if _, err := c.RunTree(context.Background(), bad); err == nil {
		t.Fatal("text node with a child accepted")
	}
	if _, err := c.RunTree(context.Background(), &xmltree.Tree{}); err == nil {
		t.Fatal("empty tree accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.RunTree(ctx, two()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunTree: %v, want an error wrapping context.Canceled", err)
	}
}

// TestTreeVerdictSurvivesTruncation fills the report with violations of
// the second constraint: the first constraint's violation, found only at
// end-of-document, and a later conformance violation both fall past the
// report's limit, and RunTree still names them.
func TestTreeVerdictSurvivesTruncation(t *testing.T) {
	c := newChecker(t, dbDTD, "ref.to <= rec.grp\nrec.id -> rec")
	root := xmltree.NewElement("db")
	for i := 0; i < 2*MaxViolations; i++ {
		root.Append(xmltree.NewElement("rec").SetAttr("id", "same").SetAttr("grp", "g"))
	}
	root.Append(xmltree.NewElement("ref").SetAttr("to", "nowhere"))
	tr := xmltree.NewTree(root)
	if first, err := c.RunTree(context.Background(), tr); err != nil || first != 0 {
		t.Fatalf("RunTree = #%d, %v; want the inclusion, #0", first, err)
	}
	root.Append(xmltree.NewElement("ref")) // lacks to
	if _, err := c.RunTree(context.Background(), tr); err == nil {
		t.Fatal("a conformance violation past the report's limit was lost")
	}
}

// TestRunFragment checks a subtree's local conformance only: its root
// need not be the DTD's root and its constraints are not checked.
func TestRunFragment(t *testing.T) {
	c := newChecker(t, dbDTD, "rec.id -> rec\nref.to => rec.id")
	frag := func(src string) *Report {
		t.Helper()
		tr, err := xmltree.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		return c.RunFragment(tr.Root)
	}
	if rep := frag(`<ref to="nowhere"/>`); !rep.OK() {
		t.Fatalf("a dangling reference is not a local violation: %v", rep.Violations)
	}
	for src, want := range map[string]string{
		`<rec id="1"/>`:               "lacks required attribute",
		`<rec id="1" grp="g" x="y"/>`: "undeclared attribute",
		`<zzz/>`:                      "not declared",
		`<db><ref to="1"/><rec id="1" grp="g"/></db>`: "do not match content model",
	} {
		if rep := frag(src); rep.OK() || !strings.Contains(rep.Violations[0].Msg, want) {
			t.Errorf("%s: violations %v, want one mentioning %q", src, rep.Violations, want)
		}
	}
}
