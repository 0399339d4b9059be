package xmltree

import (
	"bytes"
	"encoding/xml"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"xic/internal/dtd"
)

func TestParseSerializeRoundTrip(t *testing.T) {
	tr := Figure1()
	text := Serialize(tr)
	back, err := ParseString(text)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if !equalTrees(tr.Root, back.Root) {
		t.Errorf("round trip changed the tree:\noriginal:\n%s\nreparsed:\n%s", text, Serialize(back))
	}
	if !Conforms(back, dtd.Teachers()) {
		t.Error("reparsed Figure 1 no longer conforms to D1")
	}
}

func equalTrees(a, b *Node) bool {
	if a.Label != b.Label || a.Value != b.Value {
		return false
	}
	if !slices.Equal(a.Attrs(), b.Attrs()) {
		return false
	}
	if len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !equalTrees(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

func TestParseWhitespaceHandling(t *testing.T) {
	tr, err := ParseString("<a>\n  <b/>\n  <b/>\n</a>")
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if len(tr.Root.Children) != 2 {
		t.Errorf("whitespace between elements should be dropped, got %d children", len(tr.Root.Children))
	}
}

func TestParseTextCoalescing(t *testing.T) {
	tr, err := ParseString("<a>one &amp; two</a>")
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if len(tr.Root.Children) != 1 || !tr.Root.Children[0].IsText() {
		t.Fatalf("expected a single text child, got %v", tr.Root.Children)
	}
	if got := tr.Root.Children[0].Value; got != "one & two" {
		t.Errorf("text = %q, want %q", got, "one & two")
	}
}

// TestParseSplitTextLinear parses one text run that 20000 comments split:
// extending the run by string concatenation copied all of it at every
// piece, 431 MB for this 180 KB document. The run is built once, so Parse
// allocates a small multiple of the document.
func TestParseSplitTextLinear(t *testing.T) {
	doc := "<r>" + strings.Repeat("xy<!---->", 20000) + "</r>"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := ParseString(doc)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Root.Children) != 1 || tr.Root.Children[0].Value != strings.Repeat("xy", 20000) {
		t.Fatalf("the split run does not parse as one text node")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(doc)) {
		t.Fatalf("Parse allocates %d bytes for a %d-byte document, want at most 64x", alloc, len(doc))
	}
}

func TestParseAttributes(t *testing.T) {
	tr, err := ParseString(`<a x="1" y="&lt;2&gt;"/>`)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if v, _ := tr.Root.Attr("x"); v != "1" {
		t.Errorf("x = %q", v)
	}
	if v, _ := tr.Root.Attr("y"); v != "<2>" {
		t.Errorf("y = %q", v)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"<a>",
		"<a></b>",
		"text only",
	}
	for _, src := range bad {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", src)
		}
	}
}

func TestSerializeEscaping(t *testing.T) {
	tr := NewTree(NewElement("a").SetAttr("k", `va"l<ue>`).Append(NewText("x < y & z")))
	text := Serialize(tr)
	back, err := ParseString(text)
	if err != nil {
		t.Fatalf("reparse after escaping: %v\n%s", err, text)
	}
	if v, _ := back.Root.Attr("k"); v != `va"l<ue>` {
		t.Errorf("attribute escape round trip = %q", v)
	}
	if back.Root.Children[0].Value != "x < y & z" {
		t.Errorf("text escape round trip = %q", back.Root.Children[0].Value)
	}
	if strings.Contains(text, "x < y") {
		t.Errorf("serialized text is unescaped:\n%s", text)
	}
}

func TestSerializeDeterministicAttrOrder(t *testing.T) {
	n := NewElement("a").SetAttr("z", "1").SetAttr("a", "2").SetAttr("m", "3")
	s := Serialize(NewTree(n))
	za := strings.Index(s, `a="2"`)
	zm := strings.Index(s, `m="3"`)
	zz := strings.Index(s, `z="1"`)
	if !(za < zm && zm < zz) {
		t.Errorf("attributes not sorted: %s", s)
	}
}

// TestParseErrorPositions is the regression table for lost parse positions:
// every structural document error must carry a real 1-based line and a
// non-negative byte offset from the reader's position. Before the fix
// these paths returned bare fmt.Errorf values with no position.
func TestParseErrorPositions(t *testing.T) {
	cases := []struct {
		name     string
		src      string
		wantLine int
		contains string
	}{
		{"multiple roots", "<a/>\n<b/>", 2, "multiple root elements"},
		{"unbalanced end", "<a/>\n</a>", 2, "unexpected end element"},
		{"chardata outside root", "<a/>\nstray", 2, "character data outside the root element"},
		{"no root", "", 1, "no root element"},
		{"collision", "<a>\n<b p:id=\"1\" q:id=\"2\"/>\n</a>", 2, "collide on local name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseString(tc.src)
			if err == nil {
				t.Fatalf("ParseString(%q) succeeded, want error", tc.src)
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %v (%T) is not a *ParseError", err, err)
			}
			if pe.Line != tc.wantLine {
				t.Errorf("line = %d, want %d (err: %v)", pe.Line, tc.wantLine, pe)
			}
			if pe.Offset < 0 {
				t.Errorf("offset = %d, want >= 0", pe.Offset)
			}
			if !strings.Contains(pe.Msg, tc.contains) {
				t.Errorf("msg %q does not mention %q", pe.Msg, tc.contains)
			}
		})
	}
}

// TestParseAttrCollision is the regression test for silently-overwritten
// namespaced attributes: a:id and b:id used to collapse into one map entry.
func TestParseAttrCollision(t *testing.T) {
	if _, err := ParseString(`<r a:id="1" b:id="2"/>`); err == nil {
		t.Fatal("colliding a:id/b:id attributes parsed without error")
	}
	if _, err := ParseString(`<r id="1" id="2"/>`); err == nil {
		t.Fatal("duplicate plain attribute parsed without error")
	}
	// Distinct locals under namespaces stay fine, as do xmlns declarations.
	tr, err := ParseString(`<r xmlns:a="u" a:x="1" y="2"/>`)
	if err != nil {
		t.Fatalf("non-colliding namespaced attributes rejected: %v", err)
	}
	if v, _ := tr.Root.Attr("x"); v != "1" {
		t.Errorf("x = %q", v)
	}
}

// TestEscapeMatchesEncodingXML holds the serializer's escaper to
// encoding/xml's EscapeText, byte for byte.
func TestEscapeMatchesEncodingXML(t *testing.T) {
	cases := []string{"", "plain", `<a href="x">&'</a>`, "tab\tnl\ncr\r", "\x00\x01\x1f", "caf\u00e9 \U0001F600",
		"\xff\xfe", "\xc3", "\xed\xa0\x80", "\ufffd\ufffe\uffff", "\ud7ff\ue000", "]]>"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = "a<>&'\"\t\n\r\x00\x80\xc3\xa9\xef\xbf\xbe"[rng.Intn(16)]
		}
		cases = append(cases, string(b))
	}
	for _, c := range cases {
		var want bytes.Buffer
		if err := xml.EscapeText(&want, []byte(c)); err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		escape(&got, c)
		if got.String() != want.String() {
			t.Fatalf("escape(%q) = %q, encoding/xml writes %q", c, got.String(), want.String())
		}
	}
}
