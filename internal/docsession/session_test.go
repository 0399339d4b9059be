package docsession

import (
	"context"
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

// TestAppendFastPath exercises the checkpointed append-at-end path: the
// insert position equals the child count, so the content-model check
// resumes from the retained automaton state.
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
