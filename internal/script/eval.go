package script

import (
	"context"
	"math"

	"act/internal/acterr"
)

// env is one lexical scope.
type env struct {
	parent *env
	vars   map[string]Value
}

func newEnv(parent *env) *env {
	return &env{parent: parent, vars: map[string]Value{}}
}

func (e *env) lookup(name string) (Value, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// assign overwrites the nearest existing binding; reports false if none.
func (e *env) assign(name string, v Value) bool {
	for s := e; s != nil; s = s.parent {
		if _, ok := s.vars[name]; ok {
			s.vars[name] = v
			return true
		}
	}
	return false
}

// Control-flow sentinels, carried as errors through the evaluator and
// consumed by the loop/function that owns them.
type ctrlReturn struct{ val Value }
type ctrlBreak struct{}
type ctrlContinue struct{}

func (ctrlReturn) Error() string   { return "return outside a function" }
func (ctrlBreak) Error() string    { return "break outside a loop" }
func (ctrlContinue) Error() string { return "continue outside a loop" }

// ctxCheckInterval is how many budget steps pass between context polls.
// Small enough that a deadline cuts a tight loop off promptly, large
// enough that the poll is amortized to noise.
const ctxCheckInterval = 1024

// interp is one evaluation's state. It is single-goroutine; nothing here
// needs locking. Neither the evaluator nor a host call starts a goroutine,
// so a cut-off program leaks none.
type interp struct {
	ctx      context.Context // budget-bounded context (outer + script timeout)
	outerCtx context.Context // the caller's context, unwrapped
	budget   Budget
	steps    int64
	alloc    int64
	depth    int
	untilCtx int // steps until the next context poll
	emits    []Emit
	globals  *env
}

// step charges n evaluator steps and polls the context every
// ctxCheckInterval steps.
func (in *interp) step(n int64) error {
	in.steps += n
	if in.budget.MaxSteps > 0 && in.steps > in.budget.MaxSteps {
		return &acterr.BudgetError{Resource: "steps", Limit: in.budget.MaxSteps}
	}
	in.untilCtx -= int(n)
	if in.untilCtx <= 0 {
		in.untilCtx = ctxCheckInterval
		return in.checkCtx()
	}
	return nil
}

// checkCtx polls the evaluation context. The caller's own deadline or
// cancellation outranks the script budget: only when the outer context is
// still live is Done attributed to the script's wall-clock budget.
func (in *interp) checkCtx() error {
	select {
	case <-in.ctx.Done():
		if err := in.outerCtx.Err(); err != nil {
			return err
		}
		return &acterr.BudgetError{Resource: "deadline", Limit: int64(in.budget.Timeout)}
	default:
		return nil
	}
}

// charge adds n bytes to the allocation estimate and enforces the cap.
func (in *interp) charge(n int64) error {
	in.alloc += n
	if in.budget.MaxAllocBytes > 0 && in.alloc > in.budget.MaxAllocBytes {
		return &acterr.BudgetError{Resource: "alloc", Limit: in.budget.MaxAllocBytes}
	}
	return nil
}

// chargeValue charges the full estimated size of v.
func (in *interp) chargeValue(v Value) error {
	n, err := sizeOf(v, 0)
	if err != nil {
		return err
	}
	return in.charge(n)
}

// run executes a parsed program: statements in order, the value of the
// last top-level expression statement (or an explicit top-level return)
// is the program's value.
func (in *interp) run(prog []stmt) (Value, error) {
	in.untilCtx = ctxCheckInterval
	in.globals = newEnv(nil)
	registerBuiltins(in.globals)
	registerHost(in.globals)
	v, _, err := in.execBody(newEnv(in.globals), prog)
	return v, err
}

// execBody runs a program or a function body, the two boundaries control
// flow cannot cross. A return ends the body with its value (ret); a break
// or continue that reaches the body escaped every loop, and fails at the
// body statement it escaped from. Otherwise v is the value of the last
// expression statement.
func (in *interp) execBody(scope *env, body []stmt) (v Value, ret bool, err error) {
	for _, s := range body {
		x, has, err := in.execStmt(scope, s)
		switch c := err.(type) {
		case nil:
		case ctrlReturn:
			return c.val, true, nil
		case ctrlBreak, ctrlContinue:
			return nil, false, errAt(s.stmtPos(), "%v", c)
		default:
			return nil, false, err
		}
		if has {
			v = x
		}
	}
	return v, false, nil
}

// execStmts runs a statement list in scope, stopping at the first error or
// control transfer, which it hands back.
func (in *interp) execStmts(scope *env, body []stmt) error {
	for _, s := range body {
		if _, _, err := in.execStmt(scope, s); err != nil {
			return err
		}
	}
	return nil
}

// loopPass runs one pass of a loop body in scope: a continue ends the
// pass, a break or an error ends the loop (stop). A pass that reaches the
// end of the body costs back more steps.
func (in *interp) loopPass(scope *env, body []stmt, back int64) (stop bool, err error) {
	switch err := in.execStmts(scope, body); err.(type) {
	case nil:
		err := in.step(back)
		return err != nil, err
	case ctrlContinue:
		return false, nil
	case ctrlBreak:
		return true, nil
	default:
		return true, err
	}
}

// execStmt executes one statement. The Value/bool pair reports the value
// of an expression statement (the last one is a program's value).
func (in *interp) execStmt(scope *env, s stmt) (Value, bool, error) {
	if err := in.step(1); err != nil {
		return nil, false, err
	}
	switch st := s.(type) {
	case *letStmt:
		v, err := in.evalExpr(scope, st.val)
		if err != nil {
			return nil, false, err
		}
		scope.vars[st.name] = v
		return nil, false, nil
	case *assignStmt:
		return nil, false, in.execAssign(scope, st)
	case *exprStmt:
		v, err := in.evalExpr(scope, st.x)
		if err != nil {
			return nil, false, err
		}
		return v, true, nil
	case *ifStmt:
		cond, err := in.evalExpr(scope, st.cond)
		if err != nil {
			return nil, false, err
		}
		b, ok := cond.(bool)
		if !ok {
			return nil, false, errAt(st.cond.exprPos(), "if condition must be a bool, got %s", typeName(cond))
		}
		if b {
			return nil, false, in.execStmts(newEnv(scope), st.then)
		}
		if st.els != nil {
			return nil, false, in.execStmts(newEnv(scope), st.els)
		}
		return nil, false, nil
	case *whileStmt:
		for {
			cond, err := in.evalExpr(scope, st.cond)
			if err != nil {
				return nil, false, err
			}
			b, ok := cond.(bool)
			if !ok {
				return nil, false, errAt(st.cond.exprPos(), "for condition must be a bool, got %s", typeName(cond))
			}
			if !b {
				return nil, false, nil
			}
			if stop, err := in.loopPass(newEnv(scope), st.body, 1); stop {
				return nil, false, err
			}
		}
	case *forInStmt:
		return nil, false, in.execForIn(scope, st)
	case *returnStmt:
		var v Value
		if st.val != nil {
			var err error
			if v, err = in.evalExpr(scope, st.val); err != nil {
				return nil, false, err
			}
		}
		return nil, false, ctrlReturn{val: v}
	case *breakStmt:
		return nil, false, ctrlBreak{}
	case *continueStmt:
		return nil, false, ctrlContinue{}
	default:
		return nil, false, errAt(s.stmtPos(), "internal: unknown statement %T", s)
	}
}

func (in *interp) execForIn(scope *env, st *forInStmt) error {
	x, err := in.evalExpr(scope, st.x)
	if err != nil {
		return err
	}
	// iter runs one pass with the loop variables bound to k and v; stop
	// ends the loop.
	iter := func(k, v Value) (stop bool, err error) {
		if err := in.step(1); err != nil {
			return true, err
		}
		body := newEnv(scope)
		if st.k != "" {
			body.vars[st.k] = k
		}
		body.vars[st.v] = v
		return in.loopPass(body, st.body, 0)
	}
	switch seq := x.(type) {
	case *List:
		for i, e := range seq.Elems {
			if stop, err := iter(float64(i), e); stop {
				return err
			}
		}
	case *Map:
		// The walk covers the keys the map held when it began, so the
		// body may add keys without extending it; entries never move,
		// and each value is read when its pass starts. No key snapshot
		// is copied any more, but its 16 bytes a key stay charged: the
		// byte charges are part of the budget contract.
		if err := in.charge(int64(16 * len(seq.keys))); err != nil {
			return err
		}
		for i, n := 0, len(seq.keys); i < n; i++ {
			if stop, err := iter(seq.keys[i], seq.vals[i]); stop {
				return err
			}
		}
	case string:
		for _, r := range seq {
			if stop, err := iter(nil, string(r)); stop {
				return err
			}
		}
	default:
		return errAt(st.x.exprPos(), "cannot iterate over a %s", typeName(x))
	}
	return nil
}

func (in *interp) execAssign(scope *env, st *assignStmt) error {
	v, err := in.evalExpr(scope, st.val)
	if err != nil {
		return err
	}
	switch t := st.target.(type) {
	case *identExpr:
		if !scope.assign(t.name, v) {
			return errAt(t.pos, "cannot assign to undefined variable %q (declare it with let)", t.name)
		}
		return nil
	case *indexExpr:
		container, err := in.evalExpr(scope, t.x)
		if err != nil {
			return err
		}
		idx, err := in.evalExpr(scope, t.idx)
		if err != nil {
			return err
		}
		switch c := container.(type) {
		case *List:
			i, err := listIndex(t.pos, idx, len(c.Elems))
			if err != nil {
				return err
			}
			c.Elems[i] = v
			return nil
		case *Map:
			k, ok := idx.(string)
			if !ok {
				return errAt(t.pos, "map key must be a string, got %s", typeName(idx))
			}
			if i := c.find(k); i >= 0 {
				c.vals[i] = v
				return nil
			}
			if err := in.charge(32 + int64(len(k))); err != nil {
				return err
			}
			c.add(k, v)
			return nil
		default:
			return errAt(t.pos, "cannot index-assign into a %s", typeName(container))
		}
	default:
		return errAt(st.pos, "internal: bad assignment target %T", st.target)
	}
}

// listIndex validates a numeric index against a list of length n.
func listIndex(pos Pos, idx Value, n int) (int, error) {
	f, ok := idx.(float64)
	if !ok {
		return 0, errAt(pos, "list index must be a number, got %s", typeName(idx))
	}
	i := int(f)
	if float64(i) != f {
		return 0, errAt(pos, "list index must be an integer, got %v", f)
	}
	if i < 0 || i >= n {
		return 0, errAt(pos, "list index %d out of range (len %d)", i, n)
	}
	return i, nil
}

func (in *interp) evalExpr(scope *env, e expr) (Value, error) {
	if err := in.step(1); err != nil {
		return nil, err
	}
	switch ex := e.(type) {
	case *litExpr:
		return ex.val, nil
	case *identExpr:
		v, ok := scope.lookup(ex.name)
		if !ok {
			return nil, errAt(ex.pos, "undefined name %q", ex.name)
		}
		return v, nil
	case *listLit:
		if err := in.charge(24 + 16*int64(len(ex.elems))); err != nil {
			return nil, err
		}
		out := &List{Elems: make([]Value, len(ex.elems))}
		for i, el := range ex.elems {
			v, err := in.evalExpr(scope, el)
			if err != nil {
				return nil, err
			}
			out.Elems[i] = v
		}
		return out, nil
	case *mapLit:
		out := newMapCap(len(ex.entries))
		for i := range ex.entries {
			e := &ex.entries[i]
			if err := in.charge(32 + int64(len(e.key))); err != nil {
				return nil, err
			}
			v, err := in.evalExpr(scope, e.val)
			if err != nil {
				return nil, err
			}
			if out.find(e.key) >= 0 {
				return nil, errAt(e.pos, "duplicate map key %q", e.key)
			}
			out.add(e.key, v)
		}
		return out, nil
	case *indexExpr:
		return in.evalIndex(scope, ex)
	case *callExpr:
		return in.evalCall(scope, ex)
	case *unaryExpr:
		return in.evalUnary(scope, ex)
	case *binExpr:
		return in.evalBinary(scope, ex)
	case *fnLit:
		return &Func{name: ex.name, params: ex.params, body: ex.body, env: scope}, nil
	default:
		return nil, errAt(e.exprPos(), "internal: unknown expression %T", e)
	}
}

func (in *interp) evalIndex(scope *env, ex *indexExpr) (Value, error) {
	container, err := in.evalExpr(scope, ex.x)
	if err != nil {
		return nil, err
	}
	idx, err := in.evalExpr(scope, ex.idx)
	if err != nil {
		return nil, err
	}
	switch c := container.(type) {
	case *List:
		i, err := listIndex(ex.pos, idx, len(c.Elems))
		if err != nil {
			return nil, err
		}
		return c.Elems[i], nil
	case *Map:
		k, ok := idx.(string)
		if !ok {
			return nil, errAt(ex.pos, "map key must be a string, got %s", typeName(idx))
		}
		v, ok := c.Get(k)
		if !ok {
			return nil, errAt(ex.pos, "map has no key %q", k)
		}
		return v, nil
	case string:
		i, err := listIndex(ex.pos, idx, len(c))
		if err != nil {
			return nil, err
		}
		return string(c[i]), nil
	default:
		return nil, errAt(ex.pos, "cannot index a %s", typeName(container))
	}
}

func (in *interp) evalCall(scope *env, ex *callExpr) (Value, error) {
	fv, err := in.evalExpr(scope, ex.fn)
	if err != nil {
		return nil, err
	}
	args := make([]Value, len(ex.args))
	for i, a := range ex.args {
		if args[i], err = in.evalExpr(scope, a); err != nil {
			return nil, err
		}
	}
	switch f := fv.(type) {
	case *Builtin:
		// Builtins run host code: poll the context at the boundary so a
		// deadline cuts off even a single long host call promptly.
		if err := in.checkCtx(); err != nil {
			return nil, err
		}
		return f.fn(in, ex.pos, args)
	case *Func:
		if len(args) != len(f.params) {
			return nil, errAt(ex.pos, "%s takes %d argument(s), got %d", fnName(f), len(f.params), len(args))
		}
		in.depth++
		if in.budget.MaxDepth > 0 && in.depth > in.budget.MaxDepth {
			in.depth--
			return nil, &acterr.BudgetError{Resource: "depth", Limit: int64(in.budget.MaxDepth)}
		}
		defer func() { in.depth-- }()
		frame := newEnv(f.env)
		for i, p := range f.params {
			frame.vars[p] = args[i]
		}
		v, ret, err := in.execBody(frame, f.body)
		if !ret {
			v = nil
		}
		return v, err
	default:
		return nil, errAt(ex.pos, "cannot call a %s", typeName(fv))
	}
}

func fnName(f *Func) string {
	if f.name == "" {
		return "function"
	}
	return "function " + f.name
}

func (in *interp) evalUnary(scope *env, ex *unaryExpr) (Value, error) {
	v, err := in.evalExpr(scope, ex.x)
	if err != nil {
		return nil, err
	}
	switch ex.op {
	case "-":
		f, ok := v.(float64)
		if !ok {
			return nil, errAt(ex.pos, "unary - needs a number, got %s", typeName(v))
		}
		return -f, nil
	case "!":
		b, ok := v.(bool)
		if !ok {
			return nil, errAt(ex.pos, "! needs a bool, got %s", typeName(v))
		}
		return !b, nil
	default:
		return nil, errAt(ex.pos, "internal: unknown unary %q", ex.op)
	}
}

func (in *interp) evalBinary(scope *env, ex *binExpr) (Value, error) {
	// Short-circuit logic first.
	if ex.op == "&&" || ex.op == "||" {
		l, err := in.evalExpr(scope, ex.x)
		if err != nil {
			return nil, err
		}
		lb, ok := l.(bool)
		if !ok {
			return nil, errAt(ex.pos, "%s needs bool operands, got %s", ex.op, typeName(l))
		}
		if (ex.op == "&&" && !lb) || (ex.op == "||" && lb) {
			return lb, nil
		}
		r, err := in.evalExpr(scope, ex.y)
		if err != nil {
			return nil, err
		}
		rb, ok := r.(bool)
		if !ok {
			return nil, errAt(ex.pos, "%s needs bool operands, got %s", ex.op, typeName(r))
		}
		return rb, nil
	}
	l, err := in.evalExpr(scope, ex.x)
	if err != nil {
		return nil, err
	}
	r, err := in.evalExpr(scope, ex.y)
	if err != nil {
		return nil, err
	}
	switch ex.op {
	case "==", "!=":
		eq, err := deepEqual(l, r, 0)
		if err != nil {
			return nil, err
		}
		if ex.op == "!=" {
			return !eq, nil
		}
		return eq, nil
	case "+":
		if lf, ok := l.(float64); ok {
			rf, ok := r.(float64)
			if !ok {
				return nil, errAt(ex.pos, "cannot add number and %s", typeName(r))
			}
			return lf + rf, nil
		}
		if ls, ok := l.(string); ok {
			rs, ok := r.(string)
			if !ok {
				return nil, errAt(ex.pos, "cannot add string and %s", typeName(r))
			}
			if err := in.charge(16 + int64(len(ls)+len(rs))); err != nil {
				return nil, err
			}
			return ls + rs, nil
		}
		return nil, errAt(ex.pos, "+ needs numbers or strings, got %s", typeName(l))
	case "-", "*", "/", "%":
		lf, ok := l.(float64)
		if !ok {
			return nil, errAt(ex.pos, "%s needs numbers, got %s", ex.op, typeName(l))
		}
		rf, ok := r.(float64)
		if !ok {
			return nil, errAt(ex.pos, "%s needs numbers, got %s", ex.op, typeName(r))
		}
		switch ex.op {
		case "-":
			return lf - rf, nil
		case "*":
			return lf * rf, nil
		case "/":
			if rf == 0 {
				return nil, errAt(ex.pos, "division by zero")
			}
			return lf / rf, nil
		default: // %
			if rf == 0 {
				return nil, errAt(ex.pos, "modulo by zero")
			}
			return math.Mod(lf, rf), nil
		}
	case "<", "<=", ">", ">=":
		if lf, ok := l.(float64); ok {
			rf, ok := r.(float64)
			if !ok {
				return nil, errAt(ex.pos, "cannot compare number with %s", typeName(r))
			}
			return compareOrd(ex.op, lf < rf, lf == rf), nil
		}
		if ls, ok := l.(string); ok {
			rs, ok := r.(string)
			if !ok {
				return nil, errAt(ex.pos, "cannot compare string with %s", typeName(r))
			}
			return compareOrd(ex.op, ls < rs, ls == rs), nil
		}
		return nil, errAt(ex.pos, "%s needs numbers or strings, got %s", ex.op, typeName(l))
	default:
		return nil, errAt(ex.pos, "internal: unknown operator %q", ex.op)
	}
}

func compareOrd(op string, less, eq bool) bool {
	switch op {
	case "<":
		return less
	case "<=":
		return less || eq
	case ">":
		return !less && !eq
	default: // >=
		return !less
	}
}
