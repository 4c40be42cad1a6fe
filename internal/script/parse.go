package script

import "slices"

// The AST. Nodes carry their source position for error reporting; the
// evaluator charges one budget step per node it visits.

type expr interface{ exprPos() Pos }

type (
	// litExpr is a number, string, bool or nil literal, its value boxed
	// once at parse time so evaluating it allocates nothing.
	litExpr struct {
		pos Pos
		val Value
	}
	identExpr struct {
		pos  Pos
		name string
	}
	listLit struct {
		pos   Pos
		elems []expr
	}
	mapLit struct {
		pos     Pos
		entries []mapEntry
	}
	indexExpr struct {
		pos Pos
		x   expr
		idx expr
	}
	callExpr struct {
		pos  Pos
		fn   expr
		args []expr
	}
	unaryExpr struct {
		pos Pos
		op  string
		x   expr
	}
	binExpr struct {
		pos Pos
		op  string
		x   expr
		y   expr
	}
	fnLit struct {
		pos    Pos
		name   string // "" for lambdas
		params []string
		body   []stmt
	}
)

// mapEntry is one key of a map literal (quoted or bare-ident sugar),
// where it stands, and its value.
type mapEntry struct {
	key string
	pos Pos
	val expr
}

func (e *litExpr) exprPos() Pos   { return e.pos }
func (e *identExpr) exprPos() Pos { return e.pos }
func (e *listLit) exprPos() Pos   { return e.pos }
func (e *mapLit) exprPos() Pos    { return e.pos }
func (e *indexExpr) exprPos() Pos { return e.pos }
func (e *callExpr) exprPos() Pos  { return e.pos }
func (e *unaryExpr) exprPos() Pos { return e.pos }
func (e *binExpr) exprPos() Pos   { return e.pos }
func (e *fnLit) exprPos() Pos     { return e.pos }

type stmt interface{ stmtPos() Pos }

type (
	letStmt struct {
		pos  Pos
		name string
		val  expr
	}
	assignStmt struct {
		pos    Pos
		target expr // identExpr or indexExpr
		val    expr
	}
	exprStmt struct {
		pos Pos
		x   expr
	}
	ifStmt struct {
		pos  Pos
		cond expr
		then []stmt
		els  []stmt // nil, a block, or a single nested ifStmt (else-if)
	}
	forInStmt struct {
		pos  Pos
		k    string // index/key variable, "" for the one-variable form
		v    string
		x    expr
		body []stmt
	}
	whileStmt struct {
		pos  Pos
		cond expr
		body []stmt
	}
	returnStmt struct {
		pos Pos
		val expr // nil for a bare return
	}
	breakStmt struct {
		pos Pos
	}
	continueStmt struct {
		pos Pos
	}
)

func (s *letStmt) stmtPos() Pos      { return s.pos }
func (s *assignStmt) stmtPos() Pos   { return s.pos }
func (s *exprStmt) stmtPos() Pos     { return s.pos }
func (s *ifStmt) stmtPos() Pos       { return s.pos }
func (s *forInStmt) stmtPos() Pos    { return s.pos }
func (s *whileStmt) stmtPos() Pos    { return s.pos }
func (s *returnStmt) stmtPos() Pos   { return s.pos }
func (s *breakStmt) stmtPos() Pos    { return s.pos }
func (s *continueStmt) stmtPos() Pos { return s.pos }

// maxParseDepth caps expression/statement nesting so hostile inputs (ten
// thousand open parens) fail with a script error instead of exhausting
// the goroutine stack.
const maxParseDepth = 200

// Parse lexes and parses one program. The returned error, if any, is a
// *Error with a source position.
func Parse(src string) ([]stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog, err := p.program()
	if err != nil {
		return nil, err
	}
	return prog, nil
}

type parser struct {
	toks  []token
	i     int
	depth int
	// exprs and entries are scratch stacks: a list, call or map collects
	// its items above the stack's top, then copies them out at exact
	// size and pops them, so nested literals share one growing buffer.
	exprs   []expr
	entries []mapEntry
	// noMap suppresses a map literal in primary position, so block
	// braces after `if cond` and `for cond` stay unambiguous. Entering
	// any bracketed subexpression clears it.
	noMap bool
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) peekAt(n int) token {
	if p.i+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.i+n]
}
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) isPunct(s string) bool {
	t := p.peek()
	return t.kind == tokPunct && t.text == s
}

func (p *parser) isKeyword(s string) bool {
	t := p.peek()
	return t.kind == tokIdent && t.text == s
}

func (p *parser) expectPunct(s string) (token, error) {
	if !p.isPunct(s) {
		return token{}, errAt(p.peek().pos, "expected %q, found %s", s, p.peek())
	}
	return p.next(), nil
}

func (p *parser) skipNewlines() {
	for p.peek().kind == tokNewline {
		p.next()
	}
}

func (p *parser) enter() error {
	p.depth++
	if p.depth > maxParseDepth {
		return errAt(p.peek().pos, "program nests deeper than %d levels", maxParseDepth)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

// pop copies the items of stack above base out at exact size and pops
// them.
func pop[T any](stack *[]T, base int) []T {
	out := slices.Clone((*stack)[base:])
	*stack = (*stack)[:base]
	return out
}

// program = { statement terminator } EOF
func (p *parser) program() ([]stmt, error) {
	var out []stmt
	p.skipNewlines()
	for p.peek().kind != tokEOF {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if err := p.terminator(); err != nil {
			return nil, err
		}
		p.skipNewlines()
	}
	return out, nil
}

// terminator consumes the newline/semicolon ending a statement; a
// closing brace or EOF also terminates.
func (p *parser) terminator() error {
	t := p.peek()
	switch {
	case t.kind == tokNewline:
		p.next()
		return nil
	case t.kind == tokEOF, t.kind == tokPunct && t.text == "}":
		return nil
	default:
		return errAt(t.pos, "expected end of statement, found %s", t)
	}
}

func (p *parser) statement() (stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.peek()
	if t.kind == tokIdent {
		switch t.text {
		case "let":
			return p.letStatement()
		case "fn":
			// `fn name(...)` is a definition; `fn (...)` starts a
			// lambda expression statement.
			if p.peekAt(1).kind == tokIdent && !keywords[p.peekAt(1).text] {
				return p.fnStatement()
			}
		case "if":
			return p.ifStatement()
		case "for":
			return p.forStatement()
		case "return":
			pos := p.next().pos
			if p.peek().kind == tokNewline || p.peek().kind == tokEOF || p.isPunct("}") {
				return &returnStmt{pos: pos}, nil
			}
			v, err := p.expression()
			if err != nil {
				return nil, err
			}
			return &returnStmt{pos: pos, val: v}, nil
		case "break":
			return &breakStmt{pos: p.next().pos}, nil
		case "continue":
			return &continueStmt{pos: p.next().pos}, nil
		}
	}
	// Expression or assignment.
	x, err := p.expression()
	if err != nil {
		return nil, err
	}
	if p.isPunct("=") {
		eq := p.next()
		switch x.(type) {
		case *identExpr, *indexExpr:
		default:
			return nil, errAt(eq.pos, "cannot assign to this expression (assign to a name or an index)")
		}
		v, err := p.expression()
		if err != nil {
			return nil, err
		}
		return &assignStmt{pos: eq.pos, target: x, val: v}, nil
	}
	return &exprStmt{pos: x.exprPos(), x: x}, nil
}

func (p *parser) letStatement() (stmt, error) {
	pos := p.next().pos // let
	t := p.peek()
	if t.kind != tokIdent || keywords[t.text] {
		return nil, errAt(t.pos, "expected variable name after let, found %s", t)
	}
	name := p.next().text
	if _, err := p.expectPunct("="); err != nil {
		return nil, err
	}
	v, err := p.expression()
	if err != nil {
		return nil, err
	}
	return &letStmt{pos: pos, name: name, val: v}, nil
}

func (p *parser) fnStatement() (stmt, error) {
	pos := p.next().pos // fn
	name := p.next().text
	params, body, err := p.fnRest()
	if err != nil {
		return nil, err
	}
	f := &fnLit{pos: pos, name: name, params: params, body: body}
	return &letStmt{pos: pos, name: name, val: f}, nil
}

// fnRest parses "(params) { body }" after `fn [name]`.
func (p *parser) fnRest() ([]string, []stmt, error) {
	if _, err := p.expectPunct("("); err != nil {
		return nil, nil, err
	}
	params := []string{}
	seen := map[string]bool{}
	for !p.isPunct(")") {
		t := p.peek()
		if t.kind != tokIdent || keywords[t.text] {
			return nil, nil, errAt(t.pos, "expected parameter name, found %s", t)
		}
		if seen[t.text] {
			return nil, nil, errAt(t.pos, "duplicate parameter %q", t.text)
		}
		seen[t.text] = true
		params = append(params, p.next().text)
		if p.isPunct(",") {
			p.next()
		} else if !p.isPunct(")") {
			return nil, nil, errAt(p.peek().pos, "expected \",\" or \")\" in parameter list, found %s", p.peek())
		}
	}
	p.next() // )
	body, err := p.block()
	if err != nil {
		return nil, nil, err
	}
	return params, body, nil
}

func (p *parser) ifStatement() (stmt, error) {
	pos := p.next().pos // if
	cond, err := p.condition()
	if err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	out := &ifStmt{pos: pos, cond: cond, then: then}
	if p.isKeyword("else") {
		p.next()
		if p.isKeyword("if") {
			nested, err := p.ifStatement()
			if err != nil {
				return nil, err
			}
			out.els = []stmt{nested}
		} else {
			els, err := p.block()
			if err != nil {
				return nil, err
			}
			out.els = els
		}
	}
	return out, nil
}

func (p *parser) forStatement() (stmt, error) {
	pos := p.next().pos // for
	// Lookahead distinguishes `for v in ...`, `for k, v in ...` from the
	// while form `for cond { ... }`.
	if p.peek().kind == tokIdent && !keywords[p.peek().text] {
		if p.peekAt(1).kind == tokIdent && p.peekAt(1).text == "in" {
			v := p.next().text
			p.next() // in
			x, err := p.condition()
			if err != nil {
				return nil, err
			}
			body, err := p.block()
			if err != nil {
				return nil, err
			}
			return &forInStmt{pos: pos, v: v, x: x, body: body}, nil
		}
		if p.peekAt(1).kind == tokPunct && p.peekAt(1).text == "," &&
			p.peekAt(2).kind == tokIdent && !keywords[p.peekAt(2).text] &&
			p.peekAt(3).kind == tokIdent && p.peekAt(3).text == "in" {
			k := p.next().text
			p.next() // ,
			v := p.next().text
			p.next() // in
			x, err := p.condition()
			if err != nil {
				return nil, err
			}
			body, err := p.block()
			if err != nil {
				return nil, err
			}
			return &forInStmt{pos: pos, k: k, v: v, x: x, body: body}, nil
		}
	}
	cond, err := p.condition()
	if err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &whileStmt{pos: pos, cond: cond, body: body}, nil
}

// condition parses an expression with map literals suppressed in primary
// position, so the `{` that follows always opens the block.
func (p *parser) condition() (expr, error) {
	saved := p.noMap
	p.noMap = true
	x, err := p.expression()
	p.noMap = saved
	return x, err
}

// block = "{" { statement terminator } "}"
func (p *parser) block() ([]stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if _, err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	saved := p.noMap
	p.noMap = false
	defer func() { p.noMap = saved }()
	out := []stmt{}
	p.skipNewlines()
	for !p.isPunct("}") {
		if p.peek().kind == tokEOF {
			return nil, errAt(p.peek().pos, "unterminated block: expected \"}\"")
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if err := p.terminator(); err != nil {
			return nil, err
		}
		p.skipNewlines()
	}
	p.next() // }
	return out, nil
}

// Binary operator precedence, low to high. `and`/`or`/`not` are aliases
// for `&&`/`||`/`!`.
var binPrec = map[string]int{
	"||": 1, "or": 1,
	"&&": 2, "and": 2,
	"==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
	"+": 4, "-": 4,
	"*": 5, "/": 5, "%": 5,
}

func (p *parser) expression() (expr, error) {
	return p.binary(1)
}

// peekBinOp returns the binary operator at the cursor, normalising the
// word aliases, or "" if none.
func (p *parser) peekBinOp() string {
	t := p.peek()
	if t.kind == tokPunct {
		if _, ok := binPrec[t.text]; ok {
			return t.text
		}
		return ""
	}
	if t.kind == tokIdent && (t.text == "and" || t.text == "or") {
		return t.text
	}
	return ""
}

func (p *parser) binary(minPrec int) (expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	x, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peekBinOp()
		if op == "" || binPrec[op] < minPrec {
			return x, nil
		}
		opTok := p.next()
		norm := op
		switch op {
		case "and":
			norm = "&&"
		case "or":
			norm = "||"
		}
		y, err := p.binary(binPrec[op] + 1)
		if err != nil {
			return nil, err
		}
		x = &binExpr{pos: opTok.pos, op: norm, x: x, y: y}
	}
}

func (p *parser) unary() (expr, error) {
	t := p.peek()
	if t.kind == tokPunct && (t.text == "-" || t.text == "!") {
		p.next()
		if err := p.enter(); err != nil {
			return nil, err
		}
		x, err := p.unary()
		p.leave()
		if err != nil {
			return nil, err
		}
		op := t.text
		if op == "!" {
			op = "!"
		}
		return &unaryExpr{pos: t.pos, op: op, x: x}, nil
	}
	if t.kind == tokIdent && t.text == "not" {
		p.next()
		if err := p.enter(); err != nil {
			return nil, err
		}
		x, err := p.unary()
		p.leave()
		if err != nil {
			return nil, err
		}
		return &unaryExpr{pos: t.pos, op: "!", x: x}, nil
	}
	return p.postfix()
}

// postfix = primary { call | index | field }
func (p *parser) postfix() (expr, error) {
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.isPunct("("):
			open := p.next()
			base := len(p.exprs)
			saved := p.noMap
			p.noMap = false
			for !p.isPunct(")") {
				if p.peek().kind == tokEOF {
					p.noMap = saved
					return nil, errAt(open.pos, "unterminated call: expected \")\"")
				}
				a, err := p.expression()
				if err != nil {
					p.noMap = saved
					return nil, err
				}
				p.exprs = append(p.exprs, a)
				if p.isPunct(",") {
					p.next()
				} else if !p.isPunct(")") {
					p.noMap = saved
					return nil, errAt(p.peek().pos, "expected \",\" or \")\" in call, found %s", p.peek())
				}
			}
			p.noMap = saved
			p.next() // )
			x = &callExpr{pos: open.pos, fn: x, args: pop(&p.exprs, base)}
		case p.isPunct("["):
			open := p.next()
			saved := p.noMap
			p.noMap = false
			idx, err := p.expression()
			p.noMap = saved
			if err != nil {
				return nil, err
			}
			if _, err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			x = &indexExpr{pos: open.pos, x: x, idx: idx}
		case p.isPunct("."):
			dot := p.next()
			t := p.peek()
			if t.kind != tokIdent {
				return nil, errAt(t.pos, "expected field name after \".\", found %s", t)
			}
			name := p.next().text
			x = &indexExpr{pos: dot.pos, x: x, idx: &litExpr{pos: t.pos, val: name}}
		default:
			return x, nil
		}
	}
}

func (p *parser) primary() (expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		return &litExpr{pos: t.pos, val: t.num}, nil
	case tokString:
		p.next()
		return &litExpr{pos: t.pos, val: t.text}, nil
	case tokIdent:
		switch t.text {
		case "true", "false":
			p.next()
			return &litExpr{pos: t.pos, val: t.text == "true"}, nil
		case "nil":
			p.next()
			return &litExpr{pos: t.pos}, nil
		case "fn":
			p.next()
			params, body, err := p.fnRest()
			if err != nil {
				return nil, err
			}
			return &fnLit{pos: t.pos, params: params, body: body}, nil
		case "and", "or", "not", "let", "for", "in", "if", "else",
			"return", "break", "continue":
			return nil, errAt(t.pos, "unexpected keyword %q", t.text)
		}
		p.next()
		return &identExpr{pos: t.pos, name: t.text}, nil
	case tokPunct:
		switch t.text {
		case "(":
			p.next()
			saved := p.noMap
			p.noMap = false
			x, err := p.expression()
			p.noMap = saved
			if err != nil {
				return nil, err
			}
			if _, err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return x, nil
		case "[":
			return p.listLiteral()
		case "{":
			if p.noMap {
				return nil, errAt(t.pos, "map literal not allowed here; wrap it in parentheses")
			}
			return p.mapLiteral()
		}
	}
	return nil, errAt(t.pos, "unexpected %s", t)
}

func (p *parser) listLiteral() (expr, error) {
	open := p.next() // [
	saved := p.noMap
	p.noMap = false
	defer func() { p.noMap = saved }()
	base := len(p.exprs)
	for !p.isPunct("]") {
		if p.peek().kind == tokEOF {
			return nil, errAt(open.pos, "unterminated list literal")
		}
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		p.exprs = append(p.exprs, e)
		if p.isPunct(",") {
			p.next()
		} else if !p.isPunct("]") {
			if k := p.peek().kind; k == tokEOF || k == tokNewline {
				return nil, errAt(open.pos, "unterminated list literal")
			}
			return nil, errAt(p.peek().pos, "expected \",\" or \"]\" in list, found %s", p.peek())
		}
	}
	p.next() // ]
	return &listLit{pos: open.pos, elems: pop(&p.exprs, base)}, nil
}

// mapLiteral parses {"k": v, ...} and the bare-key sugar {k: v}. Newlines
// are whitespace inside the braces so pasted JSON documents parse as-is.
func (p *parser) mapLiteral() (expr, error) {
	open := p.next() // {
	saved := p.noMap
	p.noMap = false
	defer func() { p.noMap = saved }()
	base := len(p.entries)
	p.skipNewlines()
	for !p.isPunct("}") {
		if p.peek().kind == tokEOF {
			return nil, errAt(open.pos, "unterminated map literal")
		}
		t := p.peek()
		switch {
		case t.kind == tokString, t.kind == tokIdent && !keywords[t.text]:
			p.next()
		default:
			return nil, errAt(t.pos, "expected map key (a string), found %s", t)
		}
		p.skipNewlines()
		if _, err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		p.skipNewlines()
		v, err := p.expression()
		if err != nil {
			return nil, err
		}
		p.entries = append(p.entries, mapEntry{key: t.text, pos: t.pos, val: v})
		p.skipNewlines()
		if p.isPunct(",") {
			p.next()
			p.skipNewlines()
		} else if !p.isPunct("}") {
			if p.peek().kind == tokEOF {
				return nil, errAt(open.pos, "unterminated map literal")
			}
			return nil, errAt(p.peek().pos, "expected \",\" or \"}\" in map, found %s", p.peek())
		}
	}
	p.next() // }
	return &mapLit{pos: open.pos, entries: pop(&p.entries, base)}, nil
}
