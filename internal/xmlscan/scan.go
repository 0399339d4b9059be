// Package xmlscan is the one XML tokenizer of the module: a streaming,
// byte-level scanner that stream validation (doccheck), tree parsing
// (xmltree) and session opens (docsession) all consume.
//
// A token is a view into one read buffer. The scanner refills the buffer
// as it goes and never holds the whole document; the buffer grows only
// when a single tag or text run does not fit. Names, attribute values and
// text are returned as []byte views that stay valid until the next call
// to Next, so a warm scanner allocates nothing per token.
//
// The scanner accepts exactly the input encoding/xml's strict Decoder
// accepts and yields the same start-element, end-element and character
// data events, minus comments, processing instructions, directives and
// namespace-declaration attributes:
//
//   - names follow the XML 1.0 (second edition) Letter/NameChar tables;
//     a name with one inner colon splits into prefix and local part, a
//     name with two colons is rejected;
//   - character data and attribute values expand the five predefined
//     entities and decimal or hexadecimal character references, rewrite
//     \r\n and lone \r to \n, and must be valid UTF-8 inside the XML
//     character range; ]]> may not appear in text;
//   - CDATA sections are character data of their own;
//   - end tags must match their start tags, prefix included;
//   - an <?xml?> declaration may name only version 1.0 and encoding
//     UTF-8.
//
// Syntax errors are *Error values carrying the line and byte offset at
// which scanning stopped; read errors from the underlying reader are
// returned unchanged.
package xmlscan

import (
	"bytes"
	"fmt"
	"io"
)

// Kind is the kind of a token.
type Kind uint8

const (
	// EOF is returned once the input is exhausted with no element open.
	EOF Kind = iota
	// StartElement is a start tag; Name and Attrs describe it. A
	// self-closing tag yields StartElement then EndElement.
	StartElement
	// EndElement is an end tag; Name is its local name.
	EndElement
	// Text is a run of character data or one CDATA section; Text holds
	// it decoded.
	Text
)

// Attr is one attribute of a start tag, namespace declarations excluded.
type Attr struct {
	Name  []byte // qualified name as written, prefix included
	Local []byte // local part of Name
	Value []byte // decoded value
}

// Error is a syntax error with its position: the 1-based line and the
// 0-based byte offset at which scanning stopped.
type Error struct {
	Line   int
	Offset int64
	Msg    string
}

func (e *Error) Error() string {
	return fmt.Sprintf("xml: line %d: %s", e.Line, e.Msg)
}

// DefaultSize is the read buffer size for inputs of unknown length.
const DefaultSize = 64 << 10

// span locates token bytes: mark-relative in the read buffer, or in the
// decode buffer when dec is set.
type span struct {
	off, end int
	dec      bool
}

// attrSpan is one scanned attribute, before it is exposed as an Attr.
type attrSpan struct {
	name  span // qualified name (always in the read buffer)
	local int  // mark-relative start of the local part
	value span
}

// nsDecl is one in-scope xmlns:prefix declaration. Only whether it binds
// its prefix to the literal "xmlns" matters: encoding/xml then treats
// attributes with that prefix as namespace declarations too.
type nsDecl struct {
	prefix int // end offset of the prefix in Scanner.nsNames
	xmlns  bool
}

// Scanner tokenizes one XML document. Create it with New; the zero value
// is not usable.
type Scanner struct {
	r    io.Reader
	buf  []byte
	mark int   // start of the current token; bytes before it may be dropped
	pos  int   // next unscanned byte
	end  int   // end of the bytes read
	base int64 // stream offset of buf[0]
	eof  bool  // the reader has nothing more
	rerr error // non-EOF read error
	err  error // sticky error
	line int   // 1 + newlines before pos

	name      span // qualified name of the current tag
	local     int  // mark-relative start of its local part
	text      span
	aspans    []attrSpan
	attrs     []Attr
	dec       []byte // decoded bytes of the current token
	selfClose bool

	open     []byte // qualified names of the open elements, concatenated
	openEnds []int  // end offset of each open element's name in open
	openNS   []int  // len(ns) when each open element started

	ns      []nsDecl
	nsNames []byte // prefixes of ns, concatenated
	nsXMLNS int    // declarations in ns binding a prefix to "xmlns"
}

// New returns a scanner reading from r. When r reports its remaining
// length (strings.Reader, bytes.Reader, bytes.Buffer), the read buffer is
// sized to it; otherwise it is DefaultSize.
func New(r io.Reader) *Scanner {
	size := DefaultSize
	if lr, ok := r.(interface{ Len() int }); ok && lr.Len() < size {
		size = lr.Len() + 1
	}
	s := &Scanner{buf: make([]byte, size)}
	s.reset(r)
	return s
}

// reset rewinds the scanner to read a new document from r, keeping its
// buffers.
func (s *Scanner) reset(r io.Reader) {
	*s = Scanner{
		r:        r,
		buf:      s.buf,
		line:     1,
		aspans:   s.aspans[:0],
		attrs:    s.attrs[:0],
		dec:      s.dec[:0],
		open:     s.open[:0],
		openEnds: s.openEnds[:0],
		openNS:   s.openNS[:0],
		ns:       s.ns[:0],
		nsNames:  s.nsNames[:0],
	}
}

// Line returns the 1-based line of Offset: one plus the newlines before
// it.
func (s *Scanner) Line() int { return s.line }

// Offset returns the byte offset just past the current token (for text,
// the offset of the markup that ended it).
func (s *Scanner) Offset() int64 { return s.base + int64(s.pos) }

// Name returns the local name of the current start or end tag.
func (s *Scanner) Name() []byte { return s.buf[s.mark+s.local : s.mark+s.name.end] }

// qname returns the qualified name of the current start or end tag.
func (s *Scanner) qname() []byte { return s.buf[s.mark+s.name.off : s.mark+s.name.end] }

// Attrs returns the attributes of the current start tag, namespace
// declarations excluded.
func (s *Scanner) Attrs() []Attr { return s.attrs }

// Text returns the decoded character data of the current Text token.
func (s *Scanner) Text() []byte { return s.bytes(s.text) }

func (s *Scanner) bytes(sp span) []byte {
	if sp.dec {
		return s.dec[sp.off:sp.end]
	}
	return s.buf[s.mark+sp.off : s.mark+sp.end]
}

// Next scans the next token. It returns EOF with a nil error at the end
// of a well-formed input; after an error every later call returns the
// same error.
func (s *Scanner) Next() (Kind, error) {
	if s.err != nil {
		return EOF, s.err
	}
	if s.selfClose {
		s.selfClose = false
		s.pop()
		return EndElement, nil
	}
	s.dec = s.dec[:0]
	s.attrs = s.attrs[:0]
	for {
		s.mark = s.pos
		if s.pos == s.end && !s.more() {
			return s.atEOF()
		}
		var k Kind
		var err error
		if s.buf[s.pos] != '<' {
			k, err = s.charData()
		} else {
			k, err = s.markup()
		}
		if err != nil {
			s.err = err
			return EOF, err
		}
		if k != EOF {
			return k, nil
		}
	}
}

func (s *Scanner) atEOF() (Kind, error) {
	switch {
	case s.rerr != nil:
		s.err = s.rerr
	case len(s.openEnds) > 0:
		s.err = s.errAt(s.pos-s.mark, "unexpected EOF")
	default:
		return EOF, nil
	}
	return EOF, s.err
}

// more reads at least one more byte into the buffer, keeping
// buf[mark:end]; it reports false once the input is exhausted. The buffer
// is compacted when the current token does not start at its front, and
// doubled only when the token fills all of it.
func (s *Scanner) more() bool {
	if s.eof {
		return false
	}
	if s.end == len(s.buf) {
		if s.mark > 0 {
			n := copy(s.buf, s.buf[s.mark:s.end])
			s.base += int64(s.mark)
			s.pos -= s.mark
			s.end = n
			s.mark = 0
		} else {
			nb := make([]byte, 2*len(s.buf))
			copy(nb, s.buf[:s.end])
			s.buf = nb
		}
	}
	for tries := 0; tries < 100; tries++ {
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		if err != nil {
			s.eof = true
			if err != io.EOF {
				s.rerr = err
			}
			return n > 0
		}
		if n > 0 {
			return true
		}
	}
	s.eof = true
	s.rerr = io.ErrNoProgress
	return false
}

// at returns the byte at mark-relative offset p, reading more input as
// needed, or -1 at the end of the input. (An int result keeps it within
// the inlining budget.)
func (s *Scanner) at(p int) int {
	if i := s.mark + p; i < s.end {
		return int(s.buf[i])
	}
	return s.atMore(p)
}

// atMore is at's refill path, kept out of line so that at inlines.
//
//go:noinline
func (s *Scanner) atMore(p int) int {
	for s.mark+p >= s.end {
		if !s.more() {
			return -1
		}
	}
	return int(s.buf[s.mark+p])
}

// errAt returns a syntax error positioned at mark-relative offset p.
func (s *Scanner) errAt(p int, msg string) error {
	s.pos = s.mark + p
	return &Error{Line: s.line, Offset: s.Offset(), Msg: msg}
}

// eofAt is the error for input ending inside a construct.
func (s *Scanner) eofAt(p int) error {
	if s.rerr != nil {
		return s.rerr
	}
	return s.errAt(p, "unexpected EOF")
}

// markup scans one construct starting with '<'. Comments, processing
// instructions and directives are consumed and reported as EOF (no token).
func (s *Scanner) markup() (Kind, error) {
	c := s.at(1)
	if c < 0 {
		return EOF, s.eofAt(1)
	}
	switch c {
	case '/':
		return s.endTag()
	case '?':
		return EOF, s.procInst()
	case '!':
		return s.bang()
	}
	return s.startTag()
}

// startTag scans <name attr="value" ...> or <name .../>.
func (s *Scanner) startTag() (Kind, error) {
	ne, local, err := s.scanName(1, "expected element name after <", true)
	if err != nil {
		return EOF, err
	}
	s.name, s.local = span{off: 1, end: ne}, local
	s.aspans = s.aspans[:0]
	p := ne
	for {
		p = s.space(p)
		c := s.at(p)
		if c < 0 {
			return EOF, s.eofAt(p)
		}
		if c == '/' {
			if c = s.at(p + 1); c < 0 {
				return EOF, s.eofAt(p + 1)
			}
			if c != '>' {
				return EOF, s.errAt(p+1, "expected /> in element")
			}
			s.selfClose = true
			p += 2
			break
		}
		if c == '>' {
			p++
			break
		}
		ae, alocal, err := s.scanName(p, "expected attribute name in element", true)
		if err != nil {
			return EOF, err
		}
		a := attrSpan{name: span{off: p, end: ae}, local: alocal}
		p = s.space(ae)
		if c = s.at(p); c < 0 {
			return EOF, s.eofAt(p)
		}
		if c != '=' {
			return EOF, s.errAt(p, "attribute name without = in element")
		}
		p = s.space(p + 1)
		if c = s.at(p); c < 0 {
			return EOF, s.eofAt(p)
		}
		if c != '"' && c != '\'' {
			return EOF, s.errAt(p, "unquoted or missing attribute value in element")
		}
		if a.value, p, err = s.chars(modeAttr, byte(c), p+1); err != nil {
			return EOF, err
		}
		s.aspans = append(s.aspans, a)
	}
	s.pos = s.mark + p
	s.push()
	return StartElement, nil
}

// push records the start tag just scanned as open, applies its namespace
// declarations and exposes its other attributes.
func (s *Scanner) push() {
	s.open = append(s.open, s.qname()...)
	s.openEnds = append(s.openEnds, len(s.open))
	s.openNS = append(s.openNS, len(s.ns))
	for i := range s.aspans {
		a := &s.aspans[i]
		if a.local == a.name.off+6 && bytes.HasPrefix(s.bytes(a.name), xmlnsColon) {
			v := s.bytes(a.value)
			s.nsNames = append(s.nsNames, s.buf[s.mark+a.local:s.mark+a.name.end]...)
			d := nsDecl{prefix: len(s.nsNames), xmlns: string(v) == "xmlns"}
			s.ns = append(s.ns, d)
			if d.xmlns {
				s.nsXMLNS++
			}
		}
	}
	for i := range s.aspans {
		if a := &s.aspans[i]; !s.isNSAttr(a) {
			s.attrs = append(s.attrs, Attr{
				Name:  s.bytes(a.name),
				Local: s.buf[s.mark+a.local : s.mark+a.name.end],
				Value: s.bytes(a.value),
			})
		}
	}
}

var xmlnsColon = []byte("xmlns:")

// isNSAttr reports whether encoding/xml would give the attribute the
// namespace "xmlns" or the local name "xmlns": an xmlns or xmlns:p
// declaration, a p:xmlns attribute, or a p:name attribute whose prefix is
// bound to the literal namespace "xmlns".
func (s *Scanner) isNSAttr(a *attrSpan) bool {
	local := s.buf[s.mark+a.local : s.mark+a.name.end]
	if string(local) == "xmlns" {
		return true
	}
	if a.local == a.name.off {
		return false // no prefix
	}
	prefix := s.buf[s.mark+a.name.off : s.mark+a.local-1]
	switch string(prefix) {
	case "xmlns":
		return true
	case "xml":
		return false // always the XML namespace, whatever is declared
	}
	if s.nsXMLNS == 0 {
		return false
	}
	for i := len(s.ns) - 1; i >= 0; i-- {
		start := 0
		if i > 0 {
			start = s.ns[i-1].prefix
		}
		if string(s.nsNames[start:s.ns[i].prefix]) == string(prefix) {
			return s.ns[i].xmlns
		}
	}
	return false
}

// pop closes the innermost open element.
func (s *Scanner) pop() {
	n := len(s.openEnds) - 1
	start := 0
	if n > 0 {
		start = s.openEnds[n-1]
	}
	s.open = s.open[:start]
	s.openEnds = s.openEnds[:n]
	base := s.openNS[n]
	s.openNS = s.openNS[:n]
	for i := len(s.ns) - 1; i >= base; i-- {
		if s.ns[i].xmlns {
			s.nsXMLNS--
		}
	}
	s.ns = s.ns[:base]
	if base == 0 {
		s.nsNames = s.nsNames[:0]
	} else {
		s.nsNames = s.nsNames[:s.ns[base-1].prefix]
	}
}

// endTag scans </name> and matches it against the innermost open element.
func (s *Scanner) endTag() (Kind, error) {
	ne, local, err := s.scanName(2, "expected element name after </", true)
	if err != nil {
		return EOF, err
	}
	s.name, s.local = span{off: 2, end: ne}, local
	p := s.space(ne)
	c := s.at(p)
	if c < 0 {
		return EOF, s.eofAt(p)
	}
	if c != '>' {
		return EOF, s.errAt(p, "invalid characters between </"+string(s.Name())+" and >")
	}
	p++
	s.pos = s.mark + p
	n := len(s.openEnds)
	if n == 0 {
		return EOF, s.errAt(p, "unexpected end element </"+string(s.Name())+">")
	}
	start := 0
	if n > 1 {
		start = s.openEnds[n-2]
	}
	if open := s.open[start:]; string(open) != string(s.qname()) {
		return EOF, s.errAt(p, mismatch(open, s.qname()))
	}
	s.pop()
	return EndElement, nil
}

// mismatch words an end tag that does not close the open element the way
// encoding/xml does.
func mismatch(open, closing []byte) string {
	op, ol := splitName(open)
	cp, cl := splitName(closing)
	if string(ol) != string(cl) {
		return "element <" + string(ol) + "> closed by </" + string(cl) + ">"
	}
	space := string(cp)
	if space == "" {
		space = `""`
	}
	return "element <" + string(ol) + "> in space " + string(op) + " closed by </" + string(cl) + "> in space " + space
}

// splitName splits a validated qualified name at its inner colon.
func splitName(q []byte) (prefix, local []byte) {
	if i := bytes.IndexByte(q, ':'); i > 0 && i < len(q)-1 {
		return q[:i], q[i+1:]
	}
	return nil, q
}

// procInst consumes <?target ...?> and checks an xml declaration's
// version and encoding.
func (s *Scanner) procInst() error {
	ne, _, err := s.scanName(2, "expected target name after <?", false)
	if err != nil {
		return err
	}
	xmlDecl := string(s.buf[s.mark+2:s.mark+ne]) == "xml"
	p := s.space(ne)
	start := p
	var b0 byte
	for {
		c := s.at(p)
		if c < 0 {
			return s.eofAt(p)
		}
		p++
		if c == '\n' {
			s.line++
		}
		if b0 == '?' && c == '>' {
			break
		}
		b0 = byte(c)
		if !xmlDecl && p > 64 {
			// Nothing of an ordinary PI is needed: drop its bytes.
			s.mark += p
			p = 0
		}
	}
	if xmlDecl {
		content := s.buf[s.mark+start : s.mark+p-2]
		if v := declParam("version=", content); len(v) > 0 && string(v) != "1.0" {
			return s.errAt(p, fmt.Sprintf("unsupported version %q; only version 1.0 is supported", v))
		}
		if e := declParam("encoding=", content); len(e) > 0 && !bytes.EqualFold(e, utf8Name) {
			return s.errAt(p, fmt.Sprintf("unsupported encoding %q; only UTF-8 is supported", e))
		}
	}
	s.pos = s.mark + p
	return nil
}

var utf8Name = []byte("utf-8")

// declParam returns the quoted value of a parameter in an xml
// declaration, empty when absent, finding it the way encoding/xml does: the first
// occurrence of key ("name=") that is followed by a quote.
func declParam(key string, s []byte) []byte {
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := index(sub, key)
		if k < 0 || len(key)+k >= len(sub) {
			return nil
		}
		i += len(key) + k + 1
		if c := sub[len(key)+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return nil
	}
	j := bytes.IndexByte(s[i:], sep)
	if j < 0 {
		return nil
	}
	return s[i : i+j]
}

// index is bytes.Index for a string key, without converting it.
func index(s []byte, key string) int {
	for i := 0; i+len(key) <= len(s); i++ {
		if string(s[i:i+len(key)]) == key {
			return i
		}
	}
	return -1
}

// bang scans <!-- comments -->, <![CDATA[ sections ]]> (a Text token) and
// <!directives>.
func (s *Scanner) bang() (Kind, error) {
	c := s.at(2)
	if c < 0 {
		return EOF, s.eofAt(2)
	}
	switch c {
	case '-':
		return EOF, s.comment()
	case '[':
		for i := 0; i < 6; i++ {
			c := s.at(3 + i)
			if c < 0 {
				return EOF, s.eofAt(3 + i)
			}
			if c != int("CDATA["[i]) {
				return EOF, s.errAt(3+i, "invalid <![ sequence")
			}
		}
		text, p, err := s.chars(modeCDATA, 0, 9)
		if err != nil {
			return EOF, err
		}
		s.text = text
		s.pos = s.mark + p
		return Text, nil
	}
	return EOF, s.directive()
}

// getc consumes one byte of a construct whose bytes are not kept,
// dropping what precedes it from the buffer.
func (s *Scanner) getc() (byte, bool) {
	if s.pos == s.end {
		s.mark = s.pos
		if !s.more() {
			return 0, false
		}
	}
	c := s.buf[s.pos]
	s.pos++
	if c == '\n' {
		s.line++
	}
	return c, true
}

// comment consumes the rest of <!-- ... -->; "--" may only end it.
func (s *Scanner) comment() error {
	c := s.at(3)
	if c < 0 {
		return s.eofAt(3)
	}
	if c != '-' {
		return s.errAt(3, "invalid sequence <!- not part of <!--")
	}
	s.pos = s.mark + 4
	var b0, b1 byte
	for {
		c, ok := s.getc()
		if !ok {
			return s.eofAt(s.pos - s.mark)
		}
		if b0 == '-' && b1 == '-' {
			if c != '>' {
				return s.errAt(s.pos-s.mark, `invalid sequence "--" not allowed in comments`)
			}
			return nil
		}
		b0, b1 = b1, c
	}
}

// directive consumes <!...> up to the '>' outside quotes that balances
// its inner '<'s, skipping comments inside it. The byte after "<!" is
// taken as is, as encoding/xml does.
func (s *Scanner) directive() error {
	if s.buf[s.mark+2] == '\n' {
		s.line++
	}
	s.pos = s.mark + 3
	var inquote byte
	depth := 0
	for {
		c, ok := s.getc()
		if !ok {
			return s.eofAt(s.pos - s.mark)
		}
		if inquote == 0 && c == '>' && depth == 0 {
			return nil
		}
	handle:
		switch {
		case c == inquote:
			inquote = 0
		case inquote != 0:
		case c == '\'' || c == '"':
			inquote = c
		case c == '>':
			depth--
		case c == '<':
			for i := 0; i < 3; i++ {
				if c, ok = s.getc(); !ok {
					return s.eofAt(s.pos - s.mark)
				}
				if c != "!--"[i] {
					depth++
					goto handle
				}
			}
			var b0, b1 byte
			for {
				if c, ok = s.getc(); !ok {
					return s.eofAt(s.pos - s.mark)
				}
				if b0 == '-' && b1 == '-' && c == '>' {
					break
				}
				b0, b1 = b1, c
			}
		}
	}
}

// charData scans a text run up to the next '<' or the end of the input.
func (s *Scanner) charData() (Kind, error) {
	text, p, err := s.chars(modeText, 0, 0)
	if err != nil {
		return EOF, err
	}
	s.text = text
	s.pos = s.mark + p
	return Text, nil
}

// space skips XML white space from mark-relative offset p.
func (s *Scanner) space(p int) int {
	for {
		c := s.at(p)
		if c < 0 || c > ' ' {
			return p
		}
		switch c {
		case '\n':
			s.line++
		case ' ', '\t', '\r':
		default:
			return p
		}
		p++
	}
}
