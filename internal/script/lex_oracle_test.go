package script

import (
	"strconv"
	"strings"
	"unicode/utf8"
)

// oracleLex is the lexer as it stood before it was tuned to allocate
// once: it regrows the token slice, scans the punct table with
// strings.HasPrefix and copies every string literal. It is kept, its
// names prefixed with oracle and sharing lex.go's unchanged helpers
// (keywords, isIdentStart, isIdentPart, parseHex4), as the oracle
// FuzzLexDifferential holds lex to.

type oracleLexer struct {
	src   string
	off   int
	line  int
	col   int
	depth int // (), [], {} nesting; newlines inside are whitespace
	toks  []token
}

// oracleLex tokenizes the whole program up front. Returns a *Error on
// the first malformed token.
func oracleLex(src string) ([]token, error) {
	lx := &oracleLexer{src: src, line: 1, col: 1}
	if err := lx.run(); err != nil {
		return nil, err
	}
	return lx.toks, nil
}

func (lx *oracleLexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

func (lx *oracleLexer) peekByte() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *oracleLexer) advance(n int) {
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

func (lx *oracleLexer) emit(k tokKind, text string, pos Pos) {
	lx.toks = append(lx.toks, token{kind: k, text: text, pos: pos})
}

func (lx *oracleLexer) run() error {
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

func (lx *oracleLexer) skipLineComment() {
	for lx.off < len(lx.src) && lx.src[lx.off] != '\n' {
		lx.advance(1)
	}
}

// negIsLiteral reports whether a '-' directly before a digit should fold
// into a numeric literal: yes when the previous token cannot end an
// expression (so the minus must be unary). This keeps pasted JSON like
// -12.5 lexing as one number while `a-1` stays a subtraction.
func (lx *oracleLexer) negIsLiteral() bool {
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

func (lx *oracleLexer) lexIdent() error {
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
		// this check the oracleLexer would loop forever making empty idents.
		r, _ := utf8.DecodeRuneInString(lx.src[lx.off:])
		return errAt(pos, "unexpected character %q", r)
	}
	lx.emit(tokIdent, lx.src[start:lx.off], pos)
	return nil
}

func (lx *oracleLexer) lexNumber() error {
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

func (lx *oracleLexer) lexString() error {
	pos := lx.pos()
	lx.advance(1) // opening quote
	var sb strings.Builder
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

// oraclePuncts are the punct tokens, longest first so two-byte operators win.
var oraclePuncts = []string{
	"==", "!=", "<=", ">=", "&&", "||",
	"+", "-", "*", "/", "%", "<", ">", "=", "!",
	"(", ")", "[", "]", "{", "}", ",", ":", ".", ";",
}

func (lx *oracleLexer) lexPunct() error {
	pos := lx.pos()
	rest := lx.src[lx.off:]
	for _, p := range oraclePuncts {
		if strings.HasPrefix(rest, p) {
			// Only () and [] suppress newline terminators: braces are
			// ambiguous between blocks (which need terminators inside)
			// and map literals (where the parser skips newlines itself).
			switch p {
			case "(", "[":
				lx.depth++
			case ")", "]":
				if lx.depth > 0 {
					lx.depth--
				}
			}
			lx.advance(len(p))
			if p == ";" {
				// A semicolon is an explicit statement terminator,
				// equivalent to a newline.
				if n := len(lx.toks); n > 0 && lx.toks[n-1].kind != tokNewline {
					lx.emit(tokNewline, ";", pos)
				}
				return nil
			}
			lx.emit(tokPunct, p, pos)
			return nil
		}
	}
	r, _ := utf8.DecodeRuneInString(rest)
	return errAt(pos, "unexpected character %q", r)
}
