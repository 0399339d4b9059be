package xmlscan

import (
	"fmt"
	"unicode/utf8"
)

// IsSpace reports whether s consists only of XML white space: the S
// production's space, tab, carriage return and line feed. It is the one
// blank-text rule of the module: parsers drop such text between elements
// and document sessions treat such a value as no text at all.
//
//xic:hotpath
func IsSpace[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\r', '\n':
		default:
			return false
		}
	}
	return true
}

// Character-data scanning modes.
const (
	modeText  = iota // a text run, ended by '<' or the end of input
	modeAttr         // a quoted attribute value
	modeCDATA        // a CDATA section's content, ended by "]]>"
)

// Byte classes of the character-data loops; cPlain bytes need no work.
const (
	cPlain = iota
	cLT    // '<': ends text, illegal in attribute values
	cAmp   // '&': entity or character reference
	cCR    // '\r': rewritten to '\n'
	cLF    // '\n': counted
	cGT    // '>': "]]>" check
	cQuote // '"' or '\'': may end an attribute value
	cCtl   // C0 control outside the XML character range
	cHigh  // first byte of a multi-byte sequence, or an invalid byte
)

var charClass = func() (t [3][256]uint8) {
	for m := range t {
		for c := 0; c < 0x20; c++ {
			t[m][c] = cCtl
		}
		for c := 0x80; c < 0x100; c++ {
			t[m][c] = cHigh
		}
		t[m]['\t'] = cPlain
		t[m]['\n'] = cLF
		t[m]['\r'] = cCR
	}
	t[modeText]['<'] = cLT
	t[modeText]['&'] = cAmp
	t[modeText]['>'] = cGT
	t[modeAttr]['<'] = cLT
	t[modeAttr]['&'] = cAmp
	t[modeAttr]['"'] = cQuote
	t[modeAttr]['\''] = cQuote
	t[modeCDATA]['>'] = cGT
	return t
}()

// nameByte marks the bytes scanName takes into a name: the ASCII name
// characters and every non-ASCII byte (validated afterwards).
var nameByte = func() (t [256]bool) {
	for c := 0; c < 256; c++ {
		t[c] = c >= utf8.RuneSelf || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' ||
			'0' <= c && c <= '9' || c == '_' || c == ':' || c == '.' || c == '-'
	}
	return t
}()

// inRange reports whether r is in the XML character range; r is never
// below 0x80 or a surrogate here.
func inRange(r rune) bool { return r <= 0xFFFD || r >= 0x10000 }

// chars scans character data from mark-relative offset p in the given
// mode and returns its content and the offset just past it (past the
// closing quote or "]]>"; at the '<' that ends a text run). Content that
// needs no rewriting stays a view of the read buffer; once an entity or
// a carriage return appears, the content is decoded into s.dec.
func (s *Scanner) chars(mode int, quote byte, p int) (content span, next int, err error) {
	tab := &charClass[mode]
	start := p
	flushed := -1 // once decoding: raw bytes [flushed, p) are not yet in dec
	dstart := len(s.dec)
	crAt := -2
	end := 0
	b := s.buf[s.mark:s.end]
	for {
		//xic:hotpath
		for p < len(b) && tab[b[p]] == cPlain {
			p++
		}
		if p == len(b) {
			more := s.more()
			b = s.buf[s.mark:s.end] // more may have moved the token, even when it read nothing
			if !more {
				if s.rerr != nil {
					return span{}, p, s.rerr
				}
				switch mode {
				case modeAttr:
					return span{}, p, s.eofAt(p)
				case modeCDATA:
					return span{}, p, s.errAt(p, "unexpected EOF in CDATA section")
				}
				end = p
				break
			}
			continue
		}
		c := b[p]
		switch tab[c] {
		case cLT:
			if mode != modeText {
				return span{}, p, s.errAt(p, "unescaped < inside quoted string")
			}
			end = p
		case cQuote:
			p++
			if c != quote {
				continue
			}
			end = p - 1
		case cLF:
			s.line++
			if p == crAt+1 {
				flushed = p + 1 // the \n of \r\n: already written
			}
			p++
			continue
		case cCR:
			s.flush(flushed, start, p)
			s.dec = append(s.dec, '\n')
			crAt = p
			p++
			flushed = p
			continue
		case cGT:
			p++
			if p-start < 3 || b[p-2] != ']' || b[p-3] != ']' {
				continue
			}
			if mode == modeText {
				return span{}, p, s.errAt(p, "unescaped ]]> not in CDATA section")
			}
			end = p - 3
		case cAmp:
			s.flush(flushed, start, p)
			if p, err = s.entity(p); err != nil {
				return span{}, p, err
			}
			flushed = p
			b = s.buf[s.mark:s.end]
			continue
		case cCtl:
			return span{}, p, s.errAt(p, fmt.Sprintf("illegal character code %U", rune(c)))
		case cHigh:
			if len(b)-p < utf8.UTFMax {
				s.at(p + utf8.UTFMax - 1)
				b = s.buf[s.mark:s.end]
			}
			r, n := utf8.DecodeRune(b[p:])
			if r == utf8.RuneError && n == 1 {
				if s.rerr != nil && !utf8.FullRune(b[p:]) {
					return span{}, p, s.rerr // the read failed inside the character
				}
				return span{}, p, s.errAt(p, "invalid UTF-8")
			}
			if !inRange(r) {
				return span{}, p, s.errAt(p, fmt.Sprintf("illegal character code %U", r))
			}
			p += n
			continue
		}
		break
	}
	if flushed < 0 {
		return span{off: start, end: end}, p, nil
	}
	if flushed < end {
		s.dec = append(s.dec, b[flushed:end]...)
	}
	return span{off: dstart, end: len(s.dec), dec: true}, p, nil
}

// flush copies the raw bytes [flushed, p) into the decode buffer; a
// negative flushed means decoding starts here, at start.
func (s *Scanner) flush(flushed, start, p int) {
	if flushed < 0 {
		flushed = start
	}
	s.dec = append(s.dec, s.buf[s.mark+flushed:s.mark+p]...)
}

// entity decodes the reference at mark-relative p (an '&') into s.dec and
// returns the offset just past its ';'. Only the five predefined entities
// and character references in the XML character range are accepted.
func (s *Scanner) entity(p int) (int, error) {
	q := p + 1
	c := s.at(q)
	if c < 0 {
		return q, s.eofAt(q)
	}
	if c != '#' {
		for nameByte[c] {
			q++
			if c = s.at(q); c < 0 {
				return q, s.eofAt(q)
			}
		}
		if c != ';' {
			return q, s.badEntity(p, q)
		}
		var r byte
		switch string(s.buf[s.mark+p+1 : s.mark+q]) {
		case "lt":
			r = '<'
		case "gt":
			r = '>'
		case "amp":
			r = '&'
		case "apos":
			r = '\''
		case "quot":
			r = '"'
		default:
			return q + 1, s.badEntity(p, q+1)
		}
		s.dec = append(s.dec, r)
		return q + 1, nil
	}
	q++
	if c = s.at(q); c < 0 {
		return q, s.eofAt(q)
	}
	base := rune(10)
	if c == 'x' {
		base = 16
		q++
		if c = s.at(q); c < 0 {
			return q, s.eofAt(q)
		}
	}
	digits := q
	var n rune
	for {
		d := rune(-1)
		switch {
		case '0' <= c && c <= '9':
			d = rune(c - '0')
		case base == 16 && 'a' <= c && c <= 'f':
			d = rune(c-'a') + 10
		case base == 16 && 'A' <= c && c <= 'F':
			d = rune(c-'A') + 10
		}
		if d < 0 {
			break
		}
		if n <= utf8.MaxRune {
			n = n*base + d
		}
		q++
		if c = s.at(q); c < 0 {
			return q, s.eofAt(q)
		}
	}
	if c != ';' {
		return q, s.badEntity(p, q)
	}
	q++
	if q-1 == digits || n > utf8.MaxRune {
		return q, s.badEntity(p, q)
	}
	if 0xD800 <= n && n <= 0xDFFF {
		n = utf8.RuneError // what string(rune(n)) makes of a surrogate
	}
	if n < 0x20 && n != '\t' && n != '\n' && n != '\r' || n >= 0x80 && !inRange(n) {
		return q, s.errAt(q, fmt.Sprintf("illegal character code %U", n))
	}
	s.dec = utf8.AppendRune(s.dec, n)
	return q, nil
}

// badEntity is the error for the unknown or malformed reference in the
// mark-relative bytes [p, q).
func (s *Scanner) badEntity(p, q int) error {
	ent := string(s.buf[s.mark+p : s.mark+q])
	if ent[len(ent)-1] != ';' {
		ent += " (no semicolon)"
	}
	return s.errAt(q, "invalid character entity "+ent)
}

// scanName scans a name at mark-relative p the way encoding/xml reads
// one: a run of ASCII name characters and non-ASCII bytes, then checked
// against the XML name tables. A missing name is an error worded by
// missing. With split, a name with one inner colon has its local part
// after the colon and a name with two colons is reported as missing. It
// returns the end of the name and the start of its local part.
func (s *Scanner) scanName(p int, missing string, split bool) (end, local int, err error) {
	c := s.at(p)
	if c < 0 {
		return 0, 0, s.eofAt(p)
	}
	if !nameByte[c] {
		return 0, 0, s.errAt(p, missing)
	}
	q := p + 1
	b := s.buf[s.mark:s.end]
	for {
		//xic:hotpath
		for q < len(b) && nameByte[b[q]] {
			q++
		}
		if q < len(b) {
			break
		}
		if !s.more() {
			return 0, 0, s.eofAt(q)
		}
		b = s.buf[s.mark:s.end]
	}
	name := b[p:q]
	valid, colons, colon := checkASCIIName(name)
	if !valid {
		valid, colons, colon = checkName(name)
	}
	if !valid {
		return 0, 0, s.errAt(q, "invalid XML name: "+string(name))
	}
	local = p
	if split {
		if colons > 1 {
			return 0, 0, s.errAt(q, missing)
		}
		if colons == 1 && colon > 0 && colon < len(name)-1 {
			local = p + colon + 1
		}
	}
	return q, local, nil
}
