package docsession

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"xic/internal/constraint"
	"xic/internal/doccheck"
	"xic/internal/dtd"
	"xic/internal/xmltree"
)

const libDTD = `
<!ELEMENT lib (grp*, ref*)>
<!ELEMENT grp (item*)>
<!ELEMENT item (#PCDATA)>
<!ELEMENT ref EMPTY>
<!ATTLIST grp id CDATA #REQUIRED>
<!ATTLIST grp tag CDATA #REQUIRED>
<!ATTLIST ref to CDATA #REQUIRED>
`

const libSigma = "grp.id -> grp\nref.to => grp.id"

const libDoc = `<lib><grp id="a" tag="x"><item>one</item></grp><grp id="b" tag="y"/><ref to="a"/></lib>`

// openLib opens a session over doc under the lib DTD and constraint set.
func openLib(t *testing.T, dtdSrc, consSrc, doc string) *Session {
	t.Helper()
	s, err := open(dtdSrc, consSrc, doc)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return s
}

func open(dtdSrc, consSrc, doc string) (*Session, error) {
	d, err := dtd.Parse(dtdSrc)
	if err != nil {
		return nil, err
	}
	var sigma []constraint.Constraint
	if consSrc != "" {
		if sigma, err = constraint.Parse(consSrc); err != nil {
			return nil, err
		}
		if err := constraint.ValidateSet(d, sigma); err != nil {
			return nil, err
		}
	}
	v := xmltree.NewValidator(d)
	v.CompileAll()
	ck := doccheck.New(d, v, sigma)
	return Open(context.Background(), ck, v, strings.NewReader(doc))
}

// revalidate runs the session's current document through a fresh full
// validation pass and fails the test if it is not clean: the session
// invariant.
func revalidate(t *testing.T, s *Session, dtdSrc, consSrc string) {
	t.Helper()
	d, _ := dtd.Parse(dtdSrc)
	sigma, _ := constraint.Parse(consSrc)
	v := xmltree.NewValidator(d)
	v.CompileAll()
	ck := doccheck.New(d, v, sigma)
	rep, err := ck.Run(context.Background(), strings.NewReader(s.Document()))
	if err != nil {
		t.Fatalf("revalidate: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("session document fails full validation:\n%s\nviolations: %v", s.Document(), rep.Violations)
	}
}

func TestOpenRejectsInvalidDocument(t *testing.T) {
	_, err := open(libDTD, libSigma, `<lib><grp id="a" tag="x"/><grp id="a" tag="y"/></lib>`)
	ide, ok := err.(*InvalidDocumentError)
	if !ok {
		t.Fatalf("got %v, want *InvalidDocumentError", err)
	}
	if len(ide.Report.Violations) == 0 {
		t.Fatal("invalid-document error carries no violations")
	}
}

func TestOpenRejectsMalformedDocument(t *testing.T) {
	if _, err := open(libDTD, libSigma, `<lib><grp`); err == nil {
		t.Fatal("malformed document accepted")
	}
}

func TestSetAttrAccept(t *testing.T) {
	s := openLib(t, libDTD, libSigma, libDoc)
	res := s.Apply(SetAttr("lib/grp[1]", "id", "c"))
	if res.Rejected != nil {
		t.Fatalf("rejected: %+v", res.Rejected)
	}
	if res.Applied != 1 || res.Elements != 5 {
		t.Fatalf("applied=%d elements=%d", res.Applied, res.Elements)
	}
	if !strings.Contains(s.Document(), `id="c"`) {
		t.Fatalf("document not updated:\n%s", s.Document())
	}
	revalidate(t, s, libDTD, libSigma)
}

func TestSetAttrDuplicateKeyRejected(t *testing.T) {
	s := openLib(t, libDTD, libSigma, libDoc)
	before := s.Document()
	res := s.Apply(SetAttr("lib/grp[1]", "id", "a"))
	rej := res.Rejected
	if rej == nil {
		t.Fatal("duplicate key accepted")
	}
	if len(rej.Report.Violations) == 0 || !strings.Contains(rej.Report.Violations[0].Msg, "duplicate key") {
		t.Fatalf("violations: %+v", rej.Report.Violations)
	}
	if rej.Repair == nil || rej.Repair.Op == nil {
		t.Fatalf("no repair op for duplicate unary key: %+v", rej.Repair)
	}
	if s.Document() != before {
		t.Fatal("rejected edit changed the document")
	}
	// The hinted counter-edit must succeed in the rejected one's place.
	if res := s.Apply(*rej.Repair.Op); res.Rejected != nil {
		t.Fatalf("repair op rejected: %+v", res.Rejected)
	}
	revalidate(t, s, libDTD, libSigma)
}

func TestSetAttrDanglingRefRejected(t *testing.T) {
	s := openLib(t, libDTD, libSigma, libDoc)
	res := s.Apply(SetAttr("lib/ref[0]", "to", "nope"))
	rej := res.Rejected
	if rej == nil {
		t.Fatal("dangling reference accepted")
	}
	if rej.Repair == nil || rej.Repair.Op == nil {
		t.Fatalf("no repair op for dangling unary reference: %+v", rej.Repair)
	}
	if rej.Repair.Op.Value != "a" && rej.Repair.Op.Value != "b" {
		t.Fatalf("repair points at %q, want an existing grp id", rej.Repair.Op.Value)
	}
	if res := s.Apply(*rej.Repair.Op); res.Rejected != nil {
		t.Fatalf("repair op rejected: %+v", res.Rejected)
	}
	revalidate(t, s, libDTD, libSigma)
}

func TestSetAttrBreakingParentSideRejected(t *testing.T) {
	s := openLib(t, libDTD, libSigma, libDoc)
	// grp[0] carries id="a", referenced by ref[0]: renaming it strands
	// the reference.
	res := s.Apply(SetAttr("lib/grp[0]", "id", "z"))
	if res.Rejected == nil {
		t.Fatal("stranding edit accepted")
	}
	if res.Rejected.Repair == nil {
		t.Fatal("no repair hint")
	}
	revalidate(t, s, libDTD, libSigma)
}

func TestSetAttrStructuralRejections(t *testing.T) {
	s := openLib(t, libDTD, libSigma, libDoc)
	for _, op := range []EditOp{
		SetAttr("lib/grp[7]", "id", "z"),
		SetAttr("nosuch", "id", "z"),
		SetAttr("lib/grp[0]", "bogus", "z"),
	} {
		if res := s.Apply(op); res.Rejected == nil {
			t.Fatalf("%+v accepted", op)
		}
	}
	revalidate(t, s, libDTD, libSigma)
}

func TestInsertAcceptAndDuplicate(t *testing.T) {
	s := openLib(t, libDTD, libSigma, libDoc)
	res := s.Apply(InsertSubtree("lib", 2, `<grp id="d" tag="z"><item>new</item></grp>`))
	if res.Rejected != nil {
		t.Fatalf("insert rejected: %+v", res.Rejected)
	}
	if res.Elements != 7 {
		t.Fatalf("elements=%d, want 7", res.Elements)
	}
	revalidate(t, s, libDTD, libSigma)

	res = s.Apply(InsertSubtree("lib", 2, `<grp id="d" tag="z"/>`))
	if res.Rejected == nil {
		t.Fatal("duplicate-key insert accepted")
	}
	if res.Rejected.Repair == nil || !strings.Contains(res.Rejected.Repair.Msg, "unused") {
		t.Fatalf("repair: %+v", res.Rejected.Repair)
	}
	if s.Elements() != 7 {
		t.Fatalf("rejected insert changed element count to %d", s.Elements())
	}
	revalidate(t, s, libDTD, libSigma)
}

func TestInsertDanglingRefRejected(t *testing.T) {
	s := openLib(t, libDTD, libSigma, libDoc)
	res := s.Apply(InsertSubtree("lib", 3, `<ref to="zz"/>`))
	if res.Rejected == nil {
		t.Fatal("dangling insert accepted")
	}
	revalidate(t, s, libDTD, libSigma)
}

func TestInsertContentModelRejected(t *testing.T) {
	s := openLib(t, libDTD, libSigma, libDoc)
	// lib is (grp*, ref*): a ref cannot precede the grps.
	res := s.Apply(InsertSubtree("lib", 0, `<ref to="a"/>`))
	if res.Rejected == nil {
		t.Fatal("content-model-breaking insert accepted")
	}
	if !strings.Contains(res.Rejected.Report.Violations[0].Msg, "content model") {
		t.Fatalf("msg: %q", res.Rejected.Report.Violations[0].Msg)
	}
	revalidate(t, s, libDTD, libSigma)
}

func TestInsertStructuralRejections(t *testing.T) {
	s := openLib(t, libDTD, libSigma, libDoc)
	for _, op := range []EditOp{
		InsertSubtree("lib", 99, `<ref to="a"/>`),
		InsertSubtree("lib", -1, `<ref to="a"/>`),
		InsertSubtree("lib", 0, `<zzz/>`),
		InsertSubtree("lib", 0, `<grp id="q"/>`), // lacks required tag
		InsertSubtree("lib", 0, `not xml`),
		InsertSubtree("lib/grp[9]", 0, `<ref to="a"/>`),
	} {
		if res := s.Apply(op); res.Rejected == nil {
			t.Fatalf("%+v accepted", op)
		}
	}
	revalidate(t, s, libDTD, libSigma)
}

func TestDeleteReferencedRejectedThenCascade(t *testing.T) {
	s := openLib(t, libDTD, libSigma, libDoc)
	res := s.Apply(DeleteSubtree("lib/grp[0]"))
	if res.Rejected == nil {
		t.Fatal("deleting the referenced grp accepted")
	}
	revalidate(t, s, libDTD, libSigma)

	// Removing the reference first unblocks the delete.
	res = s.Apply(DeleteSubtree("lib/ref[0]"), DeleteSubtree("lib/grp[0]"))
	if res.Rejected != nil {
		t.Fatalf("cascade rejected: %+v", res.Rejected)
	}
	if res.Elements != 2 { // lib + remaining grp
		t.Fatalf("elements=%d, want 2", res.Elements)
	}
	revalidate(t, s, libDTD, libSigma)
}

func TestDeleteRootRejected(t *testing.T) {
	s := openLib(t, libDTD, libSigma, libDoc)
	if res := s.Apply(DeleteSubtree("lib")); res.Rejected == nil {
		t.Fatal("root delete accepted")
	}
}

func TestSetText(t *testing.T) {
	s := openLib(t, libDTD, libSigma, libDoc)
	if res := s.Apply(SetText("lib/grp[0]/item[0]", "two")); res.Rejected != nil {
		t.Fatalf("settext rejected: %+v", res.Rejected)
	}
	if !strings.Contains(s.Document(), "two") {
		t.Fatalf("text not updated:\n%s", s.Document())
	}
	// item is (#PCDATA), which this engine reads as one mandatory text
	// run (matching the streaming checker): removal is a content-model
	// rejection.
	if res := s.Apply(SetText("lib/grp[0]/item[0]", "  ")); res.Rejected == nil {
		t.Fatal("text removal accepted against a non-nullable model")
	}
	revalidate(t, s, libDTD, libSigma)

	// Under a nullable mixed model the text node can toggle away and back.
	const mixed = `
<!ELEMENT doc (#PCDATA | b)*>
<!ELEMENT b EMPTY>
`
	m := openLib(t, mixed, "", `<doc>hello</doc>`)
	if res := m.Apply(SetText("doc", " ")); res.Rejected != nil {
		t.Fatalf("text removal rejected: %+v", res.Rejected)
	}
	if res := m.Apply(SetText("doc", "back")); res.Rejected != nil {
		t.Fatalf("text restore rejected: %+v", res.Rejected)
	}
	if !strings.Contains(m.Document(), "back") {
		t.Fatalf("text not restored:\n%s", m.Document())
	}
	revalidate(t, m, mixed, "")

	// grp[0] has an element child; grp[1] is (item*) and rejects text.
	if res := s.Apply(SetText("lib/grp[0]", "x")); res.Rejected == nil {
		t.Fatal("settext on element-children node accepted")
	}
	if res := s.Apply(SetText("lib/grp[1]", "x")); res.Rejected == nil {
		t.Fatal("settext violating the content model accepted")
	}
	revalidate(t, s, libDTD, libSigma)
}

func TestDeleteMergesTextSiblings(t *testing.T) {
	const d = `
<!ELEMENT doc (#PCDATA | b)*>
<!ELEMENT b EMPTY>
`
	s := openLib(t, d, "", `<doc>left<b/>right</doc>`)
	if res := s.Apply(DeleteSubtree("doc/b[0]")); res.Rejected != nil {
		t.Fatalf("delete rejected: %+v", res.Rejected)
	}
	if !strings.Contains(s.Document(), "leftright") {
		t.Fatalf("text not merged:\n%s", s.Document())
	}
	revalidate(t, s, d, "")
	// The merged node must still be editable as one text run.
	if res := s.Apply(SetText("doc", "all new")); res.Rejected != nil {
		t.Fatalf("settext after merge rejected: %+v", res.Rejected)
	}
	revalidate(t, s, d, "")
}

func TestApplyBatchStopsAtRejection(t *testing.T) {
	s := openLib(t, libDTD, libSigma, libDoc)
	res := s.Apply(
		SetAttr("lib/grp[1]", "id", "c"),
		SetAttr("lib/grp[1]", "id", "a"), // duplicate: rejected
		SetAttr("lib/grp[1]", "id", "e"), // must not run
	)
	if res.Applied != 1 || res.Rejected == nil || res.Rejected.Index != 1 {
		t.Fatalf("applied=%d rejected=%+v", res.Applied, res.Rejected)
	}
	if !strings.Contains(s.Document(), `id="c"`) || strings.Contains(s.Document(), `id="e"`) {
		t.Fatalf("batch prefix not applied exactly:\n%s", s.Document())
	}
	revalidate(t, s, libDTD, libSigma)
}

func TestNegatedConstraintsSessions(t *testing.T) {
	// not grp.tag -> grp: some two grps must share a tag.
	// not ref.to <= grp.tag: some ref.to must avoid all grp tags.
	const sigma = "not grp.tag -> grp\nnot ref.to <= grp.tag"
	doc := `<lib><grp id="a" tag="t"/><grp id="b" tag="t"/><ref to="zz"/></lib>`
	s := openLib(t, libDTD, sigma, doc)

	// Breaking the shared tag pair violates the negated key.
	if res := s.Apply(SetAttr("lib/grp[1]", "tag", "u")); res.Rejected == nil {
		t.Fatal("negated-key-breaking edit accepted")
	}
	// Pointing the ref at a live tag violates the negated inclusion, and
	// the repair hint proposes a value outside the tag set.
	res := s.Apply(SetAttr("lib/ref[0]", "to", "t"))
	if res.Rejected == nil {
		t.Fatal("negated-inclusion-breaking edit accepted")
	}
	if res.Rejected.Repair == nil || res.Rejected.Repair.Op == nil {
		t.Fatalf("repair: %+v", res.Rejected.Repair)
	}
	if res := s.Apply(*res.Rejected.Repair.Op); res.Rejected != nil {
		t.Fatalf("repair op rejected: %+v", res.Rejected)
	}
	revalidate(t, s, libDTD, sigma)
}

// TestAppendFastPath exercises appends at the end of the child list,
// narrow and then wide: under a wide parent the content-model check
// resumes from the position set after the last child.
func TestAppendFastPath(t *testing.T) {
	s := openLib(t, libDTD, libSigma, `<lib><grp id="a" tag="x"/></lib>`)
	for i, id := range []string{"b", "c", "d"} {
		res := s.Apply(InsertSubtree("lib", 1+i, `<grp id="`+id+`" tag="x"/>`))
		if res.Rejected != nil {
			t.Fatalf("append %d rejected: %+v", i, res.Rejected)
		}
	}
	// Appends that break the model still fail through the fast path:
	// a second ref cannot be followed by a grp.
	if res := s.Apply(InsertSubtree("lib", 4, `<ref to="a"/>`)); res.Rejected != nil {
		t.Fatalf("ref append rejected: %+v", res.Rejected)
	}
	if res := s.Apply(InsertSubtree("lib", 5, `<grp id="z" tag="x"/>`)); res.Rejected == nil {
		t.Fatal("grp after ref accepted")
	}
	for i := 0; i < 2*wideKids; i++ {
		if res := s.Apply(InsertSubtree("lib", 5+i, `<ref to="a"/>`)); res.Rejected != nil {
			t.Fatalf("ref append %d rejected: %+v", i, res.Rejected)
		}
	}
	if s.wide[s.tree.Root] == nil {
		t.Fatal("lib outgrew the narrow bound but has no kids index")
	}
	if res := s.Apply(InsertSubtree("lib", 5+2*wideKids, `<grp id="z" tag="x"/>`)); res.Rejected == nil {
		t.Fatal("grp after ref accepted under a wide parent")
	}
	checkKids(t, s)
	revalidate(t, s, libDTD, libSigma)
}

// TestInsertLeavesNeighboursUnchanged inserts into a parent whose child
// list the open carved right before another element's: the insert must
// move the list rather than write over its neighbour's.
func TestInsertLeavesNeighboursUnchanged(t *testing.T) {
	s := openLib(t, libDTD, libSigma, `<lib><grp id="a" tag="x"><item>one</item></grp><grp id="b" tag="y"><item>two</item></grp><ref to="a"/></lib>`)
	type state struct {
		kids  []*xmltree.Node
		attrs []xmltree.Attr
	}
	before := make(map[*xmltree.Node]state)
	s.tree.Walk(func(n *xmltree.Node) bool {
		before[n] = state{slices.Clone(n.Children), slices.Clone(n.Attrs())}
		return true
	})
	grp := s.tree.Root.Children[0]
	if res := s.Apply(InsertSubtree("lib/grp[0]", 1, "<item>new</item>")); res.Rejected != nil {
		t.Fatalf("insert rejected: %+v", res.Rejected)
	}
	for n, was := range before {
		if n != grp && (!slices.Equal(n.Children, was.kids) || !slices.Equal(n.Attrs(), was.attrs)) {
			t.Fatalf("the insert changed %s: %d children, attributes %v; was %d, %v",
				n.Label, len(n.Children), n.Attrs(), len(was.kids), was.attrs)
		}
	}
	revalidate(t, s, libDTD, libSigma)
}

// TestSessionAllocFree pins the ISSUE's zero-allocation guarantee: the
// steady-state SetAttr and SetText apply paths allocate nothing.
func TestSessionAllocFree(t *testing.T) {
	s := openLib(t, libDTD, libSigma, libDoc)
	setA := []EditOp{SetAttr("lib/grp[1]", "id", "z1")}
	setB := []EditOp{SetAttr("lib/grp[1]", "id", "z2")}
	textA := []EditOp{SetText("lib/grp[0]/item[0]", "alpha")}
	textB := []EditOp{SetText("lib/grp[0]/item[0]", "beta")}
	apply := func(ops []EditOp) {
		if res := s.Apply(ops...); res.Rejected != nil {
			t.Fatalf("steady-state op rejected: %+v", res.Rejected)
		}
	}
	// Warm the scratch buffers and map buckets once.
	apply(setA)
	apply(setB)
	apply(textA)
	if n := testing.AllocsPerRun(200, func() {
		apply(setA)
		apply(setB)
	}); n != 0 {
		t.Fatalf("SetAttr toggle allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		apply(textA)
		apply(textB)
	}); n != 0 {
		t.Fatalf("SetText toggle allocates %v per run, want 0", n)
	}
}

// TestSetTextNonXMLSpaceRestreams is the regression test for the split
// whitespace rule: sessions treated only XML white space as no text, the
// parsers anything strings.TrimSpace emptied, so a no-break space set on
// a (#PCDATA) element was accepted and the session's own document then
// failed restreaming with "sequence is incomplete". Both now use
// xmlscan.IsSpace.
func TestSetTextNonXMLSpaceRestreams(t *testing.T) {
	s := openLib(t, libDTD, libSigma, libDoc)
	for _, v := range []string{"\u00a0", "\u2003", "\u0085 "} {
		if res := s.Apply(SetText("lib/grp[0]/item[0]", v)); res.Rejected != nil {
			t.Fatalf("settext %q rejected: %+v", v, res.Rejected)
		}
		revalidate(t, s, libDTD, libSigma)
	}
	// The same text arrives through the parser as a text node.
	m := openLib(t, libDTD, libSigma, "<lib><grp id=\"a\" tag=\"x\"><item>\u00a0</item></grp></lib>")
	if !strings.Contains(m.Document(), "<item>\u00a0</item>") {
		t.Fatalf("non-XML white space dropped:\n%s", m.Document())
	}
}

// TestDeepDocumentSerializesLinearly is the regression test for
// indentation quadratic in depth: a valid 56 KB document of 8000 nested
// elements used to serialize to 128 MB.
func TestDeepDocumentSerializesLinearly(t *testing.T) {
	const depth = 8000
	const d = `
<!ELEMENT r (n)>
<!ELEMENT n (n?)>
`
	doc := "<r>" + strings.Repeat("<n>", depth) + strings.Repeat("</n>", depth) + "</r>"
	s := openLib(t, d, "", doc)
	out := s.Document()
	if len(out) > 20*len(doc) {
		t.Fatalf("Document() of a %d-byte input is %d bytes", len(doc), len(out))
	}
	revalidate(t, s, d, "")
}

// checkKids compares every kids index of the session with one built from
// scratch over the current tree, and checks that exactly the parents
// with more than wideKids children have one.
func checkKids(t *testing.T, s *Session) {
	t.Helper()
	fresh := &Session{v: s.v, wide: make(map[*xmltree.Node]*kids), runPool: make(map[string]*dtd.Run)}
	wide := 0
	walk(s.tree.Root, func(n *xmltree.Node) bool {
		if len(n.Children) <= wideKids {
			return true
		}
		wide++
		fresh.indexKids(n)
		got, want := s.wide[n], fresh.wide[n]
		if got == nil || want == nil {
			t.Fatalf("%s with %d children: kids index %v, rebuilt %v", n.Label, len(n.Children), got, want)
		}
		if !slices.Equal(got.sets, want.sets) {
			t.Fatalf("%s: position sets %v, rebuilt %v", n.Label, got.sets, want.sets)
		}
		for _, g := range want.groups {
			if i := got.find(g.label); i < 0 || !slices.Equal(got.groups[i].slots, g.slots) {
				t.Fatalf("%s: slots of %s differ from rebuilt %v", n.Label, g.label, g.slots)
			}
		}
		for _, g := range got.groups {
			if len(g.slots) > 0 && want.find(g.label) < 0 {
				t.Fatalf("%s: slots of %s %v, which it has no child of", n.Label, g.label, g.slots)
			}
		}
		return true
	})
	if wide != len(s.wide) {
		t.Fatalf("%d wide parents, %d kids indexes", wide, len(s.wide))
	}
}

// TestPathIndexOverflowRejected: an index past the int range does not
// resolve. Parsed with wrapping arithmetic, item[2^64] named item[0] and
// the edit rewrote it.
func TestPathIndexOverflowRejected(t *testing.T) {
	var b strings.Builder
	b.WriteString(`<lib><grp id="a" tag="x"><item>one</item><item>two</item></grp><grp id="b" tag="y">`)
	for i := 0; i < 2*wideKids; i++ {
		fmt.Fprintf(&b, "<item>w%d</item>", i)
	}
	b.WriteString(`</grp></lib>`)
	s := openLib(t, libDTD, libSigma, b.String())
	before := s.Document()
	for _, path := range []string{
		"lib/grp[0]/item[18446744073709551616]", // 2^64
		"lib/grp[0]/item[18446744073709551617]", // 2^64+1
		"lib/grp[1]/item[18446744073709551616]", // under a wide parent
		"lib/grp[1]/item[18446744073709551617]",
		"lib/grp[18446744073709551616]/item[0]",
	} {
		for _, op := range []EditOp{SetText(path, "aliased"), DeleteSubtree(path), SetAttr(path, "id", "q")} {
			res := s.Apply(op)
			if res.Rejected == nil {
				t.Fatalf("%s %s accepted", op.Kind, path)
			}
			if msg := res.Rejected.Report.Violations[0].Msg; !strings.Contains(msg, "does not resolve") {
				t.Fatalf("%s %s: %q, want a path that does not resolve", op.Kind, path, msg)
			}
		}
	}
	if s.Document() != before {
		t.Fatalf("rejected edits changed the document:\n%s", s.Document())
	}
}

// TestWideEditsResumeReplay: a middle insert and a middle delete under a
// parent of 10^4 children re-run its content model over at most two
// symbols. Every symbol the replay steps either stages a changed
// position set or meets the old run and ends the replay, so the staged
// count plus one bounds the steps; a full replay steps all 10^4.
func TestWideEditsResumeReplay(t *testing.T) {
	const n = 10000
	var b strings.Builder
	b.WriteString("<lib>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<grp id="g%d" tag="x"/>`, i)
	}
	b.WriteString(`<ref to="g0"/></lib>`)
	s := openLib(t, libDTD, libSigma, b.String())
	if res := s.Apply(InsertSubtree("lib", n/2, `<grp id="mid" tag="x"/>`)); res.Rejected != nil {
		t.Fatalf("middle insert rejected: %+v", res.Rejected)
	}
	if s.nstage > 1 {
		t.Fatalf("middle insert staged %d position sets, want at most 1", s.nstage)
	}
	if res := s.Apply(DeleteSubtree(fmt.Sprintf("lib/grp[%d]", n/3))); res.Rejected != nil {
		t.Fatalf("middle delete rejected: %+v", res.Rejected)
	}
	if s.nstage > 1 {
		t.Fatalf("middle delete staged %d position sets, want at most 1", s.nstage)
	}
	// grp[n/2-1] is now the inserted one, and the grp before it g(n/2-1).
	if res := s.Apply(SetAttr(fmt.Sprintf("lib/grp[%d]", n/2-2), "id", "moved")); res.Rejected != nil {
		t.Fatalf("setattr after the edits rejected: %+v", res.Rejected)
	}
	if doc := s.Document(); !strings.Contains(doc, `<grp id="moved" tag="x"/>`+"\n"+`  <grp id="mid" tag="x"/>`) ||
		strings.Contains(doc, fmt.Sprintf(`"g%d"`, n/2-1)) {
		t.Fatal("slot lookup after the edits named the wrong grp")
	}
	checkKids(t, s)
	revalidate(t, s, libDTD, libSigma)
}

// ledgerDoc is a ledger-shaped document, where one wide root holds 2000
// narrow txn elements, with a checker for it.
func ledgerDoc(t *testing.T) (*doccheck.Checker, *xmltree.Validator, string) {
	t.Helper()
	const dtdSrc = `
<!ELEMENT ledger (acct+, txn*)>
<!ELEMENT acct EMPTY>
<!ATTLIST acct no CDATA #REQUIRED owner CDATA #REQUIRED>
<!ELEMENT txn (memo?, amt)>
<!ATTLIST txn tid CDATA #REQUIRED from CDATA #REQUIRED to CDATA #REQUIRED>
<!ELEMENT memo (#PCDATA)>
<!ELEMENT amt (#PCDATA)>
`
	const sigma = "txn.from => acct.no\ntxn.to <= acct.no\ntxn.tid -> txn"
	var b strings.Builder
	b.WriteString("<ledger>\n")
	const accts, txns = 200, 2000
	for i := 0; i < accts; i++ {
		fmt.Fprintf(&b, "<acct no=\"a%d\" owner=\"o%d\"/>\n", i, i%37)
	}
	for i := 0; i < txns; i++ {
		fmt.Fprintf(&b, "<txn tid=\"t%d\" from=\"a%d\" to=\"a%d\">", i, i%accts, (i*7)%accts)
		if i%2 == 0 {
			fmt.Fprintf(&b, "<memo>memo %d</memo>", i)
		}
		fmt.Fprintf(&b, "<amt>%d</amt></txn>\n", i*13%10000)
	}
	b.WriteString("</ledger>")
	d, err := dtd.Parse(dtdSrc)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := constraint.Parse(sigma)
	if err != nil {
		t.Fatal(err)
	}
	v := xmltree.NewValidator(d)
	return doccheck.New(d, v, cons), v, b.String()
}

// TestOpenAllocsPerElement bounds the heap objects an open allocates per
// element on the ledger document. The tree's nodes, attribute pairs,
// child lists and text come from a few slabs per document, so most of
// what is left is the constraint indexes' copy of every indexed value. An
// attribute map per element, a string per value and text run and
// appended child slices took 5.1.
func TestOpenAllocsPerElement(t *testing.T) {
	ck, v, doc := ledgerDoc(t)
	var elems int
	allocs := testing.AllocsPerRun(5, func() {
		s, err := Open(context.Background(), ck, v, strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		elems = s.elems
	})
	if per := allocs / float64(elems); per > maxOpenAllocsPerElement {
		t.Fatalf("Open allocates %.2f objects per element (%v for %d elements), want at most %v", per, allocs, elems, maxOpenAllocsPerElement)
	}
}

// maxOpenAllocsPerElement is 1.33, the layout's measurement, plus 10%.
const maxOpenAllocsPerElement = 1.46

// TestOpenRetainedBytesPerElement bounds the heap an open session keeps
// per element, after a collection, on the ledger document. With an
// attribute map per element it kept 331 B (355 B under -race).
func TestOpenRetainedBytesPerElement(t *testing.T) {
	ck, v, doc := ledgerDoc(t)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := int64(ms.HeapAlloc)
	s, err := Open(context.Background(), ck, v, strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	per := float64(int64(ms.HeapAlloc)-before) / float64(s.elems)
	runtime.KeepAlive(s)
	runtime.KeepAlive(doc)
	if per > maxRetainedPerElement {
		t.Fatalf("an open session keeps %.0f B per element, want at most %v", per, maxRetainedPerElement)
	}
}

// maxRetainedPerElement is 267 B, the layout's measurement under -race
// (264 B without), plus 10%. Of the 267 B, the 80-byte nodes take 126 B:
// this document has 1.6 nodes per element.
const maxRetainedPerElement = 294

// TestRejectionReportTuples pins which dangling tuples a rejection
// reports, and in what order — by first position, then tuple — for a
// dangling setattr, an insert carrying two distinct dangling refs (one of
// them twice), and a delete of a grp two refs point at. The tuples are
// read in each op's candidate index state and checked against a scan of
// the whole inclusion index.
func TestRejectionReportTuples(t *testing.T) {
	const boxDTD = `
<!ELEMENT lib (grp*, ref*, box*)>
<!ELEMENT grp (item*)>
<!ELEMENT item (#PCDATA)>
<!ELEMENT ref EMPTY>
<!ELEMENT box (ref*)>
<!ATTLIST grp id CDATA #REQUIRED>
<!ATTLIST grp tag CDATA #REQUIRED>
<!ATTLIST ref to CDATA #REQUIRED>
`
	const doc = `<lib><grp id="a" tag="x"/><grp id="b" tag="y"/><ref to="b"/><ref to="a"/><ref to="b"/></lib>`
	// Positions are byte offsets just past the start tag; the delete's
	// tuple must carry its first ref's.
	firstB := int64(strings.Index(doc, `<ref to="b"/>`) + len(`<ref to="b"/>`))
	cases := []struct {
		op     EditOp
		tuples []string
		check  func(v doccheck.Violation) bool
	}{
		{SetAttr("lib/ref[1]", "to", "nope"), []string{"nope"},
			func(v doccheck.Violation) bool { return v.Offset == 0 }},
		{InsertSubtree("lib", 5, `<box><ref to="zz"/><ref to="yy"/><ref to="zz"/></box>`), []string{"yy", "zz"},
			func(v doccheck.Violation) bool { return v.Offset == 0 }},
		{DeleteSubtree("lib/grp[1]"), []string{"b"},
			func(v doccheck.Violation) bool { return v.Offset == firstB && v.Line == 1 }},
	}
	for _, c := range cases {
		s := openLib(t, boxDTD, libSigma, doc)
		in := s.idx.Entries[1].Incl
		inCandidate(t, s, c.op, func() {
			got := s.dangling(in)
			var tuples []string
			for _, m := range got {
				tuples = append(tuples, m.t)
			}
			if !slices.Equal(tuples, c.tuples) {
				t.Fatalf("%s: dangling tuples %q, want %q", c.op.Kind, tuples, c.tuples)
			}
			var all []miss
			in.EachUnmatched(func(t string, first doccheck.SrcPos) { all = append(all, miss{t, first}) })
			sort.Slice(all, func(i, j int) bool {
				if all[i].pos.Off != all[j].pos.Off {
					return all[i].pos.Off < all[j].pos.Off
				}
				return all[i].t < all[j].t
			})
			if !slices.Equal(got, all) {
				t.Fatalf("%s: undo-log scan %v, index scan %v", c.op.Kind, got, all)
			}
		})
		res := s.Apply(c.op)
		if res.Rejected == nil {
			t.Fatalf("%s accepted", c.op.Kind)
		}
		vs := res.Rejected.Report.Violations
		if len(vs) != len(c.tuples) {
			t.Fatalf("%s: %d violations, want %d: %+v", c.op.Kind, len(vs), len(c.tuples), vs)
		}
		for _, v := range vs {
			if v.Path != "ref" || v.Constraint == nil || !strings.Contains(v.Msg, "would match no grp element") || !c.check(v) {
				t.Fatalf("%s: violation %+v", c.op.Kind, v)
			}
		}
		if s.Document() != openLib(t, boxDTD, libSigma, doc).Document() {
			t.Fatalf("%s: rejected edit changed the document", c.op.Kind)
		}
	}
}

// inCandidate runs f with the session's constraint indexes in op's
// candidate state — the op's index mutations applied, as the rejection
// builder sees them — and rolls them back afterwards.
func inCandidate(t *testing.T, s *Session, op EditOp, f func()) {
	t.Helper()
	switch op.Kind {
	case OpSetAttr:
		if st := s.setAttrFast(&op); st != opConstraint {
			t.Fatalf("setattr status %d, want a constraint violation", st)
		}
	case OpInsertSubtree:
		sub, err := xmltree.ParseString(op.XML)
		if err != nil {
			t.Fatal(err)
		}
		s.beginOp()
		s.addSubtree(sub.Root)
	case OpDeleteSubtree:
		n, _, _ := s.resolve(op.Path)
		s.beginOp()
		s.removeSubtree(n)
	}
	f()
	s.rollback()
}

// TestMultiAttributeEdits edits a session under a two-attribute key and a
// two-attribute foreign key. Each rejected op must name the composite
// tuples it would duplicate or leave dangling, read in the op's candidate
// index state; each accepted counterpart must commit. The document holds
// course (cs, 1) next to (c, s1), two tuples that an encoding without
// length prefixes would confuse.
func TestMultiAttributeEdits(t *testing.T) {
	const catDTD = `
<!ELEMENT cat (course*, enroll*)>
<!ELEMENT course EMPTY>
<!ELEMENT enroll EMPTY>
<!ATTLIST course dept CDATA #REQUIRED>
<!ATTLIST course no CDATA #REQUIRED>
<!ATTLIST enroll dept CDATA #REQUIRED>
<!ATTLIST enroll no CDATA #REQUIRED>
`
	const catSigma = "course(dept, no) -> course\nenroll(dept, no) => course(dept, no)"
	const doc = `<cat><course dept="cs" no="1"/><course dept="c" no="s1"/><course dept="cs" no="2"/>` +
		`<course dept="ma" no="1"/><enroll dept="cs" no="2"/></cat>`
	tuple := func(vals ...string) string { return doccheck.TupleKey(vals) }
	for _, c := range []struct {
		name     string
		op       EditOp
		dups     []string // key tuples the op would make occur twice
		dangling []string // reference tuples the op would leave unmatched
		msg      string
	}{
		{name: "setattr collides", op: SetAttr("cat/course[3]", "dept", "cs"),
			dups: []string{tuple("cs", "1")}, msg: "duplicate key"},
		{name: "setattr distinct", op: SetAttr("cat/course[3]", "dept", "ee")},
		{name: "insert repeats", op: InsertSubtree("cat", 4, `<course dept="cs" no="2"/>`),
			dups: []string{tuple("cs", "2")}, msg: "duplicate key"},
		{name: "insert distinct", op: InsertSubtree("cat", 4, `<course dept="cs" no="3"/>`)},
		{name: "delete leaves a reference dangling", op: DeleteSubtree("cat/course[2]"),
			dangling: []string{tuple("cs", "2")}, msg: "would match no course element"},
		{name: "delete unreferenced", op: DeleteSubtree("cat/course[1]")},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := openLib(t, catDTD, catSigma, doc)
			key, fk := s.idx.Entries[0], s.idx.Entries[1]
			if len(c.dups)+len(c.dangling) > 0 {
				inCandidate(t, s, c.op, func() {
					for _, tu := range c.dups {
						if key.Key.Count(tu) != 2 || fk.Key.Count(tu) != 2 {
							t.Errorf("tuple %q counted %d and %d times, want 2", tu, key.Key.Count(tu), fk.Key.Count(tu))
						}
					}
					var got []string
					for _, m := range s.dangling(fk.Incl) {
						got = append(got, m.t)
					}
					if !slices.Equal(got, c.dangling) {
						t.Errorf("dangling tuples %q, want %q", got, c.dangling)
					}
				})
			}
			res := s.Apply(c.op)
			if c.msg == "" {
				if res.Rejected != nil {
					t.Fatalf("rejected: %+v", res.Rejected)
				}
				revalidate(t, s, catDTD, catSigma)
				return
			}
			if res.Rejected == nil {
				t.Fatal("accepted")
			}
			vs := res.Rejected.Report.Violations
			if len(vs) == 0 {
				t.Fatal("rejection carries no violations")
			}
			for _, v := range vs {
				if v.Constraint == nil || !strings.Contains(v.Msg, c.msg) || !strings.Contains(v.Msg, "(dept, no)") {
					t.Errorf("violation %+v, want one of a constraint on (dept, no) saying %q", v, c.msg)
				}
			}
			if s.Document() != openLib(t, catDTD, catSigma, doc).Document() {
				t.Fatal("rejected edit changed the document")
			}
		})
	}
}
