package xmlscan

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// event is one token in a comparable form.
type event struct {
	kind  Kind
	name  string
	attrs string // local=value pairs, namespace declarations dropped
	text  string
	off   int64
	line  int
}

func (e event) String() string {
	return fmt.Sprintf("{%d %q %q %q off=%d line=%d}", e.kind, e.name, e.attrs, e.text, e.off, e.line)
}

// oracle tokenizes doc with encoding/xml's strict decoder, dropping
// comments, processing instructions, directives and xmlns attributes.
func oracle(doc []byte) ([]event, error) {
	d := xml.NewDecoder(bytes.NewReader(doc))
	var evs []event
	for {
		tok, err := d.Token()
		if err == io.EOF {
			return evs, nil
		}
		if err != nil {
			return evs, err
		}
		off := d.InputOffset()
		e := event{off: off, line: 1 + bytes.Count(doc[:off], []byte("\n"))}
		switch t := tok.(type) {
		case xml.StartElement:
			e.kind, e.name = StartElement, t.Name.Local
			var b strings.Builder
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				fmt.Fprintf(&b, "%s=%q ", a.Name.Local, a.Value)
			}
			e.attrs = b.String()
		case xml.EndElement:
			e.kind, e.name = EndElement, t.Name.Local
		case xml.CharData:
			e.kind, e.text = Text, string(t)
		default:
			continue
		}
		evs = append(evs, e)
	}
}

// scanAll tokenizes doc with a scanner reading through r into a buffer of
// the given size (0: New's choice).
func scanAll(r io.Reader, size int) ([]event, *Scanner, error) {
	s := New(r)
	if size > 0 {
		s = &Scanner{buf: make([]byte, size)}
		s.reset(r)
	}
	var evs []event
	for {
		k, err := s.Next()
		if err != nil {
			return evs, s, err
		}
		if k == EOF {
			return evs, s, nil
		}
		e := event{kind: k, off: s.Offset(), line: s.Line()}
		switch k {
		case StartElement:
			e.name = string(s.Name())
			var b strings.Builder
			for _, a := range s.Attrs() {
				fmt.Fprintf(&b, "%s=%q ", a.Local, a.Value)
			}
			e.attrs = b.String()
		case EndElement:
			e.name = string(s.Name())
		case Text:
			e.text = string(s.Text())
		}
		evs = append(evs, e)
	}
}

// checkParity requires the scanner to agree with encoding/xml on doc: the
// same verdict, and the same events (with offsets and lines) up to the
// error or the end — through whole-buffer reads, one-byte reads, and a
// buffer small enough to force compaction and growth.
func checkParity(t *testing.T, doc []byte) {
	t.Helper()
	want, werr := oracle(doc)
	for _, c := range []struct {
		name string
		r    io.Reader
		size int
	}{
		{"bytes", bytes.NewReader(doc), 0},
		{"onebyte", iotest.OneByteReader(bytes.NewReader(doc)), 0},
		{"tiny", iotest.HalfReader(bytes.NewReader(doc)), 3},
	} {
		got, _, gerr := scanAll(c.r, c.size)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: verdicts differ on %q:\nencoding/xml: %v\nscanner:      %v", c.name, doc, werr, gerr)
		}
		if gerr != nil {
			var se *Error
			if !errors.As(gerr, &se) {
				t.Fatalf("%s: error %v (%T) is not *Error", c.name, gerr, gerr)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d events, encoding/xml %d, on %q:\nscanner:      %v\nencoding/xml: %v", c.name, len(got), len(want), doc, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: event %d differs on %q:\nscanner:      %v\nencoding/xml: %v", c.name, i, doc, got[i], want[i])
			}
		}
	}
}

// parityCases seed the parity test and the fuzzer: every construct the
// scanner accepts or must reject.
var parityCases = []string{
	`<a/>`,
	`<a x="1" y='2'>text</a>`,
	"<a>\n  <b/>\n  <b>x</b>\n</a>",
	`<a><![CDATA[x < y & z]]></a>`,
	`<a>x<![CDATA[]]>y<![CDATA[ ]]]>z</a>`,
	`<a><![CDATA[unterminated</a>`,
	`<a><![CDAT[x]]></a>`,
	`<a>x]]>y</a>`,
	`<a x="]]>"/>`,
	`<!-- c --><a><!---->b<!-- - --></a><!-- after -->`,
	`<a><!-- bad -- comment --></a>`,
	`<a><!- x --></a>`,
	`<!-- --->` + `<a/>`,
	`<?xml version="1.0" encoding="UTF-8"?><a/>`,
	`<?xml version="1.0" encoding="utf-8" standalone="yes"?><a/>`,
	`<?xml version="1.1"?><a/>`,
	`<?xml version="1.0" encoding="ISO-8859-1"?><a/>`,
	`<?xml encoding='UTF8'?><a/>`,
	`<?xml?><a/>`,
	`<?xml version="" encoding=""?><a/>`,
	`<?xml version=1.1 encoding='latin1?><a/>`,
	`<?xml-stylesheet href="s.css"?><a><?pi some data?></a>`,
	`<a><?xml version="2.0"?></a>`,
	`<? x?><a/>`,
	`<?x`,
	`<!DOCTYPE a><a/>`,
	`<!DOCTYPE a [<!ELEMENT a ANY><!ATTLIST a x CDATA "v>w"><!-- <c> --><!ENTITY e "x">]><a>&amp;</a>`,
	`<!DOCTYPE a [<!ENTITY e "x">]><a>&e;</a>`,
	`<!DOCTYPE a [<<>>]><a/>`,
	`<!><a/>`,
	`<!"><a/>">`,
	"<!\n><a/>",
	`<a>&lt;&gt;&amp;&apos;&quot;</a>`,
	`<a x="&lt;&#65;&#x42;&#x1F600;"/>`,
	`<a>&#0;</a>`,
	`<a>&#xD800;</a>`,
	`<a>&#xFFFE;</a>`,
	`<a>&#x110000;</a>`,
	`<a>&#99999999999999999999;</a>`,
	`<a>&#;</a>`,
	`<a>&#x;</a>`,
	`<a>&#X41;</a>`,
	`<a>&#65</a>`,
	`<a>&unknown;</a>`,
	`<a>&;</a>`,
	`<a>& b</a>`,
	`<a>&amp</a>`,
	`<a>&`,
	"<a>line1\r\nline2\rline3\n</a>",
	"<a x=\"v\r\nw\rz\"/>",
	"<a>\r</a>\r\n",
	"<a>&#13;\n</a>",
	`<p:a xmlns:p="urn:p" p:x="1" q:y="2"/>`,
	`<p:a></p:a>`,
	`<p:a></q:a>`,
	`<p:a></a>`,
	`<a></p:a>`,
	`<a:b:c/>`,
	`<a x:y:z="1"/>`,
	`<:a/>`,
	`<a:/>`,
	`<a ::="1"/>`,
	`<a xmlns="urn:d" xmlns:p="urn:p"><b p:c="1" xmlns:q="urn:q"/></a>`,
	`<a xmlns:p="xmlns" p:b="1" c="2"/>`,
	`<a p:b="1" xmlns:p="xmlns"/>`,
	`<a xmlns:p="xmlns"><b p:c="1"/></a><c p:d="2"/>`,
	`<a xmlns:p="xmlns" xmlns:p="x" p:b="1"/>`,
	`<a xmlns:="1" xmlns:xml="xmlns" xml:lang="en" p:xmlns="2"/>`,
	"<élément attr\u00e9=\"v\"/>",
	"<a\u00b7b/>",
	"<\u00b7a/>",
	"<a\u00a0/>",
	"<a>\u00a0</a>",
	"<a>caf\u00e9 \U0001F600</a>",
	"<a>\xff</a>",
	"<a>\xc3</a>",
	"<a x=\"\xc3\x28\"/>",
	"<a>\xef\xbf\xbe</a>",
	"<a>\xed\xa0\x80</a>",
	"<a>\x01</a>",
	"<a>\t</a>",
	"<a\xff/>",
	"<!-- \xff --><a/>",
	"<?pi \xff?><a/>",
	`<a x=">" y='"'>></a>`,
	`<a x="<"/>`,
	`<a x=1/>`,
	`<a x/>`,
	`<a x = "1" />`,
	`<a x="1"y="2"/>`,
	`<a / >`,
	`<a></a >`,
	`<a></a b>`,
	`</a>`,
	`<a></b>`,
	`<a><b></a></b>`,
	`<a>`,
	`<a`,
	`<`,
	`<a x="1`,
	``,
	`   `,
	`text only`,
	`<a/><b/>`,
	`<a/>trailing`,
	`<1a/>`,
	`<a><1b/></a>`,
	`<a-b.c_d:e/>`,
	"\ufeff<a/>",
	`<a x="&#9;&#10;&#13;"/>`,
	`<a x='it&apos;s'/>`,
}

func TestScanMatchesEncodingXML(t *testing.T) {
	for _, doc := range parityCases {
		checkParity(t, []byte(doc))
	}
}

// FuzzScanMatchesEncodingXML requires the scanner and encoding/xml's
// strict decoder to agree on arbitrary input: the same accept/reject
// verdict and, on accepted input, the same start, end and text events at
// the same offsets, after dropping comments, processing instructions,
// directives and xmlns attributes.
func FuzzScanMatchesEncodingXML(f *testing.F) {
	for _, doc := range parityCases {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkParity(t, doc)
	})
}

// TestNameTablesMatchEncodingXML checks the name tables rune by rune: a
// rune starts a name, or continues one, exactly when encoding/xml accepts
// it there.
func TestNameTablesMatchEncodingXML(t *testing.T) {
	accepts := func(doc string) bool {
		_, err := oracle([]byte(doc))
		return err == nil
	}
	for r := rune(0x80); r <= 0x10FFFF; r++ {
		if r >= 0xD800 && r <= 0xDFFF {
			continue
		}
		if r >= 0x10000 && r%0x101 != 0 {
			continue // no name character lies beyond the BMP; sample it
		}
		c := string(r)
		if got, want := inTable(nameStart, r), accepts("<"+c+"/>"); got != want {
			t.Errorf("%U as a name start: tables %v, encoding/xml %v", r, got, want)
		}
		if got, want := inTable(nameChar, r), accepts("<a"+c+"/>"); got != want {
			t.Errorf("%U inside a name: tables %v, encoding/xml %v", r, got, want)
		}
	}
}

func TestErrorPositions(t *testing.T) {
	cases := []struct {
		doc, msg string
		line     int
	}{
		{"<a>\n<b>\n</a>", "element <b> closed by </a>", 3},
		{"<a/>\n</a>", "unexpected end element </a>", 2},
		{"<a>\n<b x=\"1\"", "unexpected EOF", 2},
		{"<?xml version=\"1.1\"?>\n<a/>", `unsupported version "1.1"; only version 1.0 is supported`, 1},
		{"\n<?xml version='1.0' encoding='ISO-8859-1'?><a/>", `unsupported encoding "ISO-8859-1"; only UTF-8 is supported`, 2},
		{"<a>\n&bogus;</a>", "invalid character entity &bogus;", 2},
	}
	for _, tc := range cases {
		_, _, err := scanAll(strings.NewReader(tc.doc), 0)
		var se *Error
		if !errors.As(err, &se) {
			t.Fatalf("%q: error %v (%T) is not *Error", tc.doc, err, err)
		}
		if se.Msg != tc.msg || se.Line != tc.line || se.Offset <= 0 {
			t.Errorf("%q: got line %d offset %d %q, want line %d %q", tc.doc, se.Line, se.Offset, se.Msg, tc.line, tc.msg)
		}
	}
}

// TestReadErrorPassesThrough keeps the reader's own error visible, so a
// caller can still tell an oversized body from a syntax error, also when
// the read fails inside a multi-byte character.
func TestReadErrorPassesThrough(t *testing.T) {
	boom := errors.New("boom")
	for _, doc := range []string{
		"<a><b>text",
		"<a>\xc3",
		"<a>caf\xe2\x82",
		"<a b=\"\xf0\x9f\x98",
		"<a><![CDATA[\xe2",
		"<a\xc3",
	} {
		r := io.MultiReader(strings.NewReader(doc), iotest.ErrReader(boom))
		if _, _, err := scanAll(r, 0); !errors.Is(err, boom) {
			t.Errorf("%q: error %v does not wrap the read error", doc, err)
		}
	}
}

func TestIsSpace(t *testing.T) {
	for s, want := range map[string]bool{
		"": true, " \t\r\n": true, "\u00a0": false, "\u2028": false, " x ": false, "\v": false,
	} {
		if IsSpace(s) != want || IsSpace([]byte(s)) != want {
			t.Errorf("IsSpace(%q) != %v", s, want)
		}
	}
}

// sampleDoc is a document of nested elements, attributes, entities and
// text, repeated to the given number of records.
func sampleDoc(records int) []byte {
	var b bytes.Buffer
	b.WriteString("<?xml version=\"1.0\"?>\n<db>\n")
	for i := 0; i < records; i++ {
		fmt.Fprintf(&b, "  <rec id=\"r%d\" grp=\"g&amp;%d\"><name>n&lt;%d</name><!-- c --><ref to=\"r%d\"/></rec>\n", i, i%7, i, i/2)
	}
	b.WriteString("</db>\n")
	return b.Bytes()
}

// TestScannerAllocFree pins the zero-allocation contract: a warm scanner
// allocates nothing per token.
func TestScannerAllocFree(t *testing.T) {
	doc := sampleDoc(200)
	r := bytes.NewReader(doc)
	s := &Scanner{buf: make([]byte, 512)}
	scan := func() {
		r.Reset(doc)
		s.reset(r)
		for {
			k, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if k == EOF {
				return
			}
		}
	}
	scan() // warm the buffers
	if allocs := testing.AllocsPerRun(20, scan); allocs != 0 {
		t.Fatalf("warm scan of %d bytes allocates %.1f times, want 0", len(doc), allocs)
	}
}

// TestBufferGrowsForLongTokens checks growth on a text run longer than
// the buffer, and that the run comes back whole.
func TestBufferGrowsForLongTokens(t *testing.T) {
	long := strings.Repeat("x", 3*DefaultSize)
	evs, s, err := scanAll(iotest.OneByteReader(strings.NewReader("<a>"+long+"</a>")), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 || evs[1].text != long {
		t.Fatalf("long text run not returned whole (%d events)", len(evs))
	}
	if len(s.buf) < len(long) {
		t.Fatalf("buffer %d smaller than the run", len(s.buf))
	}
}

func BenchmarkScan(b *testing.B) {
	doc := sampleDoc(5000)
	r := bytes.NewReader(doc)
	s := New(r)
	b.SetBytes(int64(len(doc)))
	for b.Loop() {
		r.Reset(doc)
		s.reset(r)
		for {
			k, err := s.Next()
			if err != nil {
				b.Fatal(err)
			}
			if k == EOF {
				break
			}
		}
	}
}

func BenchmarkEncodingXML(b *testing.B) {
	doc := sampleDoc(5000)
	b.SetBytes(int64(len(doc)))
	for b.Loop() {
		d := xml.NewDecoder(bytes.NewReader(doc))
		for {
			if _, err := d.Token(); err != nil {
				if err != io.EOF {
					b.Fatal(err)
				}
				break
			}
		}
	}
}
