package script

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token kinds. The lexer turns newlines into terminator tokens only at
// bracket depth zero, so expressions may span lines inside (), [] or {}
// without continuation syntax, while statements still end at end of line.
type tokKind int

const (
	tokEOF tokKind = iota
	tokNewline
	tokIdent
	tokNumber
	tokString
	tokPunct // operators and delimiters, identified by text
)

type token struct {
	kind tokKind
	text string // a string literal's decoded value; the source text otherwise
	pos  Pos
	num  float64 // valid for tokNumber
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokNewline:
		return "end of line"
	case tokString:
		return fmt.Sprintf("string %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// keywords of the language. They are lexed as tokIdent and classified in
// the parser, except that true/false/nil are literals.
var keywords = map[string]bool{
	"let": true, "fn": true, "for": true, "in": true, "if": true,
	"else": true, "return": true, "break": true, "continue": true,
	"true": true, "false": true, "nil": true, "and": true, "or": true,
	"not": true,
}

type lexer struct {
	src   string
	off   int
	line  int
	col   int
	depth int // (), [], {} nesting; newlines inside are whitespace
	toks  []token
}

// lex tokenizes the whole program up front. Returns a *Error on the first
// malformed token.
func lex(src string) ([]token, error) {
	// One token per four source bytes covers JSON-shaped programs (a
	// literal scenario is about that dense), so the slice is allocated
	// once instead of regrown; denser sources still grow by append.
	lx := &lexer{src: src, line: 1, col: 1, toks: make([]token, 0, len(src)/4+16)}
	if err := lx.run(); err != nil {
		return nil, err
	}
	return lx.toks, nil
}

func (lx *lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

func (lx *lexer) peekByte() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *lexer) advance(n int) {
	for i := 0; i < n; i++ {
		if lx.src[lx.off] == '\n' {
			lx.line++
			lx.col = 1
		} else {
			lx.col++
		}
		lx.off++
	}
}

func (lx *lexer) emit(k tokKind, text string, pos Pos) {
	lx.toks = append(lx.toks, token{kind: k, text: text, pos: pos})
}

func (lx *lexer) run() error {
	for lx.off < len(lx.src) {
		c := lx.src[lx.off]
		switch {
		case c == '\n':
			if lx.depth == 0 {
				// Collapse runs of newlines into one terminator.
				if n := len(lx.toks); n > 0 && lx.toks[n-1].kind != tokNewline {
					lx.emit(tokNewline, "\n", lx.pos())
				}
			}
			lx.advance(1)
		case c == ' ' || c == '\t' || c == '\r':
			lx.advance(1)
		case c == '#':
			lx.skipLineComment()
		case c == '/' && lx.off+1 < len(lx.src) && lx.src[lx.off+1] == '/':
			lx.skipLineComment()
		case c >= '0' && c <= '9':
			if err := lx.lexNumber(); err != nil {
				return err
			}
		case c == '-' && lx.off+1 < len(lx.src) && lx.src[lx.off+1] >= '0' && lx.src[lx.off+1] <= '9' && lx.negIsLiteral():
			if err := lx.lexNumber(); err != nil {
				return err
			}
		case c == '"':
			if err := lx.lexString(); err != nil {
				return err
			}
		case isIdentStart(rune(c)) || c >= utf8.RuneSelf:
			if err := lx.lexIdent(); err != nil {
				return err
			}
		default:
			if err := lx.lexPunct(); err != nil {
				return err
			}
		}
	}
	// Ensure the final statement terminates.
	if n := len(lx.toks); n > 0 && lx.toks[n-1].kind != tokNewline {
		lx.emit(tokNewline, "\n", lx.pos())
	}
	lx.emit(tokEOF, "", lx.pos())
	return nil
}

func (lx *lexer) skipLineComment() {
	for lx.off < len(lx.src) && lx.src[lx.off] != '\n' {
		lx.advance(1)
	}
}

// negIsLiteral reports whether a '-' directly before a digit should fold
// into a numeric literal: yes when the previous token cannot end an
// expression (so the minus must be unary). This keeps pasted JSON like
// -12.5 lexing as one number while `a-1` stays a subtraction.
func (lx *lexer) negIsLiteral() bool {
	for i := len(lx.toks) - 1; i >= 0; i-- {
		t := lx.toks[i]
		if t.kind == tokNewline {
			continue
		}
		switch t.kind {
		case tokNumber, tokString:
			return false
		case tokIdent:
			// `return -1`, `in -1` keep literal; `x -1` is subtraction.
			return keywords[t.text] && t.text != "true" && t.text != "false" && t.text != "nil"
		case tokPunct:
			switch t.text {
			case ")", "]", "}":
				return false
			}
			return true
		}
		return true
	}
	return true
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func (lx *lexer) lexIdent() error {
	pos := lx.pos()
	start := lx.off
	for lx.off < len(lx.src) {
		r, size := utf8.DecodeRuneInString(lx.src[lx.off:])
		if r == utf8.RuneError && size == 1 {
			return errAt(lx.pos(), "invalid UTF-8 byte 0x%02x", lx.src[lx.off])
		}
		if !isIdentPart(r) {
			break
		}
		lx.advance(size)
	}
	if lx.off == start {
		// A multibyte rune that is not an identifier character (the
		// dispatch in run sends every byte >= RuneSelf here). Without
		// this check the lexer would loop forever making empty idents.
		r, _ := utf8.DecodeRuneInString(lx.src[lx.off:])
		return errAt(pos, "unexpected character %q", r)
	}
	lx.emit(tokIdent, lx.src[start:lx.off], pos)
	return nil
}

func (lx *lexer) lexNumber() error {
	pos := lx.pos()
	start := lx.off
	if lx.peekByte() == '-' {
		lx.advance(1)
	}
	digits := func() int {
		n := 0
		for lx.off < len(lx.src) && lx.src[lx.off] >= '0' && lx.src[lx.off] <= '9' {
			lx.advance(1)
			n++
		}
		return n
	}
	digits()
	if lx.peekByte() == '.' {
		lx.advance(1)
		if digits() == 0 {
			return errAt(lx.pos(), "malformed number: digit required after decimal point")
		}
	}
	if b := lx.peekByte(); b == 'e' || b == 'E' {
		lx.advance(1)
		if b := lx.peekByte(); b == '+' || b == '-' {
			lx.advance(1)
		}
		if digits() == 0 {
			return errAt(lx.pos(), "malformed number: digit required in exponent")
		}
	}
	text := lx.src[start:lx.off]
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return errAt(pos, "malformed number %q", text)
	}
	lx.toks = append(lx.toks, token{kind: tokNumber, text: text, pos: pos, num: f})
	return nil
}

func (lx *lexer) lexString() error {
	pos := lx.pos()
	lx.advance(1) // opening quote
	start := lx.off
	// Most literals are plain ASCII: scan that run, and when the closing
	// quote ends it, the value is a slice of the source. The run holds no
	// newline, so the column advances by its byte length.
	plain := lx.off
	for plain < len(lx.src) {
		if c := lx.src[plain]; c == '"' || c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
		plain++
	}
	lx.col += plain - lx.off
	lx.off = plain
	if lx.off < len(lx.src) && lx.src[lx.off] == '"' {
		lx.emit(tokString, lx.src[start:lx.off], pos)
		lx.advance(1)
		return nil
	}
	var sb strings.Builder
	sb.WriteString(lx.src[start:lx.off])
	for {
		if lx.off >= len(lx.src) {
			return errAt(pos, "unterminated string")
		}
		c := lx.src[lx.off]
		if c == '"' {
			lx.advance(1)
			break
		}
		if c == '\n' {
			return errAt(pos, "unterminated string (newline in string literal)")
		}
		if c == '\\' {
			if lx.off+1 >= len(lx.src) {
				return errAt(pos, "unterminated string")
			}
			esc := lx.src[lx.off+1]
			switch esc {
			case '"', '\\', '/':
				sb.WriteByte(esc)
				lx.advance(2)
			case 'n':
				sb.WriteByte('\n')
				lx.advance(2)
			case 't':
				sb.WriteByte('\t')
				lx.advance(2)
			case 'r':
				sb.WriteByte('\r')
				lx.advance(2)
			case 'b':
				sb.WriteByte('\b')
				lx.advance(2)
			case 'f':
				sb.WriteByte('\f')
				lx.advance(2)
			case 'u':
				if lx.off+6 > len(lx.src) {
					return errAt(lx.pos(), `truncated \u escape`)
				}
				hex := lx.src[lx.off+2 : lx.off+6]
				r, err := parseHex4(hex)
				if err != nil {
					return errAt(lx.pos(), `invalid \u escape \u%s`, hex)
				}
				// Surrogate pair handling, JSON-style.
				if r >= 0xD800 && r <= 0xDBFF && lx.off+12 <= len(lx.src) &&
					lx.src[lx.off+6] == '\\' && lx.src[lx.off+7] == 'u' {
					if r2, err := parseHex4(lx.src[lx.off+8 : lx.off+12]); err == nil && r2 >= 0xDC00 && r2 <= 0xDFFF {
						sb.WriteRune((r-0xD800)<<10 + (r2 - 0xDC00) + 0x10000)
						lx.advance(12)
						continue
					}
				}
				if r >= 0xD800 && r <= 0xDFFF {
					sb.WriteRune(utf8.RuneError)
				} else {
					sb.WriteRune(r)
				}
				lx.advance(6)
			default:
				return errAt(lx.pos(), `invalid escape \%c`, esc)
			}
			continue
		}
		if c < 0x20 {
			return errAt(lx.pos(), "control byte 0x%02x in string literal", c)
		}
		r, size := utf8.DecodeRuneInString(lx.src[lx.off:])
		if r == utf8.RuneError && size == 1 {
			return errAt(lx.pos(), "invalid UTF-8 byte 0x%02x in string literal", c)
		}
		sb.WriteString(lx.src[lx.off : lx.off+size])
		lx.advance(size)
	}
	lx.emit(tokString, sb.String(), pos)
	return nil
}

func parseHex4(s string) (rune, error) {
	var r rune
	for i := 0; i < 4; i++ {
		c := s[i]
		r <<= 4
		switch {
		case c >= '0' && c <= '9':
			r |= rune(c - '0')
		case c >= 'a' && c <= 'f':
			r |= rune(c-'a') + 10
		case c >= 'A' && c <= 'F':
			r |= rune(c-'A') + 10
		default:
			return 0, fmt.Errorf("bad hex digit %q", c)
		}
	}
	return r, nil
}

// lexPunct lexes an operator or delimiter, dispatching on its first
// byte; a two-byte operator wins over its one-byte prefix.
func (lx *lexer) lexPunct() error {
	pos := lx.pos()
	rest := lx.src[lx.off:]
	n := 0
	switch c := rest[0]; c {
	case '=', '!', '<', '>':
		n = 1
		if len(rest) > 1 && rest[1] == '=' {
			n = 2
		}
	case '&', '|':
		if len(rest) > 1 && rest[1] == c {
			n = 2
		}
	case '+', '-', '*', '/', '%', '(', ')', '[', ']', '{', '}', ',', ':', '.', ';':
		n = 1
	}
	if n == 0 {
		r, _ := utf8.DecodeRuneInString(rest)
		return errAt(pos, "unexpected character %q", r)
	}
	p := rest[:n]
	// Only () and [] suppress newline terminators: braces are ambiguous
	// between blocks (which need terminators inside) and map literals
	// (where the parser skips newlines itself).
	switch p {
	case "(", "[":
		lx.depth++
	case ")", "]":
		if lx.depth > 0 {
			lx.depth--
		}
	}
	lx.advance(n)
	if p == ";" {
		// A semicolon is an explicit statement terminator, equivalent to
		// a newline.
		if n := len(lx.toks); n > 0 && lx.toks[n-1].kind != tokNewline {
			lx.emit(tokNewline, ";", pos)
		}
		return nil
	}
	lx.emit(tokPunct, p, pos)
	return nil
}
