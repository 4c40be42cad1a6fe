package script

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// registerBuiltins installs the closed, pure builtin set into scope. Host
// builtins (footprint, pareto, rank, emit) live in host.go.
func registerBuiltins(scope *env) {
	for _, b := range builtinTable {
		scope.vars[b.name] = b
	}
}

// argCount validates the builtin arity.
func argCount(name string, pos Pos, args []Value, min, max int) error {
	if len(args) < min || len(args) > max {
		if min == max {
			return errAt(pos, "%s takes %d argument(s), got %d", name, min, len(args))
		}
		return errAt(pos, "%s takes %d to %d arguments, got %d", name, min, max, len(args))
	}
	return nil
}

func wantNumber(name string, pos Pos, v Value) (float64, error) {
	f, ok := v.(float64)
	if !ok {
		return 0, errAt(pos, "%s needs a number, got %s", name, typeName(v))
	}
	return f, nil
}

func wantString(name string, pos Pos, v Value) (string, error) {
	s, ok := v.(string)
	if !ok {
		return "", errAt(pos, "%s needs a string, got %s", name, typeName(v))
	}
	return s, nil
}

func wantList(name string, pos Pos, v Value) (*List, error) {
	l, ok := v.(*List)
	if !ok {
		return nil, errAt(pos, "%s needs a list, got %s", name, typeName(v))
	}
	return l, nil
}

// mathBuiltin wraps a one-argument float function.
func mathBuiltin(name string, f func(float64) float64) *Builtin {
	return &Builtin{name: name, fn: func(in *interp, pos Pos, args []Value) (Value, error) {
		if err := argCount(name, pos, args, 1, 1); err != nil {
			return nil, err
		}
		x, err := wantNumber(name, pos, args[0])
		if err != nil {
			return nil, err
		}
		return f(x), nil
	}}
}

var builtinTable = []*Builtin{
	{name: "len", fn: func(in *interp, pos Pos, args []Value) (Value, error) {
		if err := argCount("len", pos, args, 1, 1); err != nil {
			return nil, err
		}
		switch x := args[0].(type) {
		case string:
			return float64(len(x)), nil
		case *List:
			return float64(len(x.Elems)), nil
		case *Map:
			return float64(x.Len()), nil
		default:
			return nil, errAt(pos, "len needs a string, list or map, got %s", typeName(args[0]))
		}
	}},

	{name: "range", fn: func(in *interp, pos Pos, args []Value) (Value, error) {
		if err := argCount("range", pos, args, 1, 3); err != nil {
			return nil, err
		}
		var start, stop, step float64
		step = 1
		switch len(args) {
		case 1:
			var err error
			if stop, err = wantNumber("range", pos, args[0]); err != nil {
				return nil, err
			}
		default:
			var err error
			if start, err = wantNumber("range", pos, args[0]); err != nil {
				return nil, err
			}
			if stop, err = wantNumber("range", pos, args[1]); err != nil {
				return nil, err
			}
			if len(args) == 3 {
				if step, err = wantNumber("range", pos, args[2]); err != nil {
					return nil, err
				}
			}
		}
		if step == 0 || math.IsNaN(step) || math.IsInf(step, 0) {
			return nil, errAt(pos, "range step must be a finite non-zero number")
		}
		n := math.Ceil((stop - start) / step)
		if n < 0 || math.IsNaN(n) {
			n = 0
		}
		// Clamp before the int64 conversion: range(1e18) must die on the
		// step budget below, not overflow the conversion.
		if n > 1e15 {
			n = 1e15
		}
		count := int64(n)
		// Charge steps and allocation before materializing: range is the
		// canonical alloc-bomb vector (range(1e18)).
		if err := in.step(count); err != nil {
			return nil, err
		}
		if err := in.charge(24 + 16*count); err != nil {
			return nil, err
		}
		out := &List{Elems: make([]Value, 0, count)}
		for i := int64(0); i < count; i++ {
			out.Elems = append(out.Elems, start+float64(i)*step)
		}
		return out, nil
	}},

	{name: "append", fn: func(in *interp, pos Pos, args []Value) (Value, error) {
		if len(args) < 2 {
			return nil, errAt(pos, "append takes a list and at least one value")
		}
		l, err := wantList("append", pos, args[0])
		if err != nil {
			return nil, err
		}
		if err := in.charge(16 * int64(len(args)-1)); err != nil {
			return nil, err
		}
		l.Elems = append(l.Elems, args[1:]...)
		return l, nil
	}},

	{name: "keys", fn: func(in *interp, pos Pos, args []Value) (Value, error) {
		if err := argCount("keys", pos, args, 1, 1); err != nil {
			return nil, err
		}
		m, ok := args[0].(*Map)
		if !ok {
			return nil, errAt(pos, "keys needs a map, got %s", typeName(args[0]))
		}
		if err := in.charge(24 + 32*int64(m.Len())); err != nil {
			return nil, err
		}
		out := &List{Elems: make([]Value, 0, m.Len())}
		for _, k := range m.Keys() {
			out.Elems = append(out.Elems, k)
		}
		return out, nil
	}},

	{name: "has", fn: func(in *interp, pos Pos, args []Value) (Value, error) {
		if err := argCount("has", pos, args, 2, 2); err != nil {
			return nil, err
		}
		m, ok := args[0].(*Map)
		if !ok {
			return nil, errAt(pos, "has needs a map, got %s", typeName(args[0]))
		}
		k, err := wantString("has", pos, args[1])
		if err != nil {
			return nil, err
		}
		_, found := m.Get(k)
		return found, nil
	}},

	{name: "sort", fn: func(in *interp, pos Pos, args []Value) (Value, error) {
		if err := argCount("sort", pos, args, 1, 2); err != nil {
			return nil, err
		}
		l, err := wantList("sort", pos, args[0])
		if err != nil {
			return nil, err
		}
		// sort(list) sorts numbers or strings ascending; sort(list, key)
		// sorts maps by a numeric field. Always returns a new list.
		n := int64(len(l.Elems))
		if err := in.step(n); err != nil {
			return nil, err
		}
		if err := in.charge(24 + 16*n); err != nil {
			return nil, err
		}
		out := &List{Elems: make([]Value, len(l.Elems))}
		copy(out.Elems, l.Elems)
		if len(out.Elems) == 0 {
			return out, nil
		}
		if len(args) == 2 {
			key, err := wantString("sort", pos, args[1])
			if err != nil {
				return nil, err
			}
			// Extract the sort keys up front so type errors surface even
			// when the comparator never runs (single-element lists).
			sortKeys := make([]float64, len(out.Elems))
			for i, v := range out.Elems {
				m, ok := v.(*Map)
				if !ok {
					return nil, errAt(pos, "sort by key needs a list of maps, got %s", typeName(v))
				}
				f, ok := m.Get(key)
				if !ok {
					return nil, errAt(pos, "sort key %q missing from element [%d]", key, i)
				}
				x, ok := f.(float64)
				if !ok {
					return nil, errAt(pos, "sort key %q is a %s, need a number", key, typeName(f))
				}
				sortKeys[i] = x
			}
			idx := make([]int, len(out.Elems))
			for i := range idx {
				idx[i] = i
			}
			sort.SliceStable(idx, func(i, j int) bool { return sortKeys[idx[i]] < sortKeys[idx[j]] })
			sorted := make([]Value, len(out.Elems))
			for i, j := range idx {
				sorted[i] = out.Elems[j]
			}
			out.Elems = sorted
			return out, nil
		}
		switch out.Elems[0].(type) {
		case float64:
			for _, v := range out.Elems {
				if _, ok := v.(float64); !ok {
					return nil, errAt(pos, "sort needs elements of one type, got number and %s", typeName(v))
				}
			}
			sort.SliceStable(out.Elems, func(i, j int) bool {
				return out.Elems[i].(float64) < out.Elems[j].(float64)
			})
		case string:
			for _, v := range out.Elems {
				if _, ok := v.(string); !ok {
					return nil, errAt(pos, "sort needs elements of one type, got string and %s", typeName(v))
				}
			}
			sort.SliceStable(out.Elems, func(i, j int) bool {
				return out.Elems[i].(string) < out.Elems[j].(string)
			})
		default:
			return nil, errAt(pos, "sort can order numbers or strings, got %s", typeName(out.Elems[0]))
		}
		return out, nil
	}},

	{name: "sum", fn: func(in *interp, pos Pos, args []Value) (Value, error) {
		if err := argCount("sum", pos, args, 1, 1); err != nil {
			return nil, err
		}
		l, err := wantList("sum", pos, args[0])
		if err != nil {
			return nil, err
		}
		if err := in.step(int64(len(l.Elems))); err != nil {
			return nil, err
		}
		total := 0.0
		for _, e := range l.Elems {
			f, ok := e.(float64)
			if !ok {
				return nil, errAt(pos, "sum needs a list of numbers, got %s", typeName(e))
			}
			total += f
		}
		return total, nil
	}},

	{name: "min", fn: foldBuiltin("min", func(a, b float64) float64 { return math.Min(a, b) })},
	{name: "max", fn: foldBuiltin("max", func(a, b float64) float64 { return math.Max(a, b) })},

	mathBuiltin("abs", math.Abs),
	mathBuiltin("floor", math.Floor),
	mathBuiltin("ceil", math.Ceil),
	mathBuiltin("round", math.Round),
	mathBuiltin("sqrt", math.Sqrt),
	mathBuiltin("exp", math.Exp),
	mathBuiltin("log", math.Log),

	{name: "pow", fn: func(in *interp, pos Pos, args []Value) (Value, error) {
		if err := argCount("pow", pos, args, 2, 2); err != nil {
			return nil, err
		}
		x, err := wantNumber("pow", pos, args[0])
		if err != nil {
			return nil, err
		}
		y, err := wantNumber("pow", pos, args[1])
		if err != nil {
			return nil, err
		}
		return math.Pow(x, y), nil
	}},

	{name: "str", fn: func(in *interp, pos Pos, args []Value) (Value, error) {
		if err := argCount("str", pos, args, 1, 1); err != nil {
			return nil, err
		}
		if s, ok := args[0].(string); ok {
			return s, nil
		}
		buf, err := appendValueJSON(nil, args[0], -1)
		if err != nil {
			return nil, err
		}
		if err := in.charge(16 + int64(len(buf))); err != nil {
			return nil, err
		}
		return string(buf), nil
	}},

	{name: "num", fn: func(in *interp, pos Pos, args []Value) (Value, error) {
		if err := argCount("num", pos, args, 1, 1); err != nil {
			return nil, err
		}
		switch x := args[0].(type) {
		case float64:
			return x, nil
		case bool:
			if x {
				return 1.0, nil
			}
			return 0.0, nil
		case string:
			f, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
			if err != nil {
				return nil, errAt(pos, "num cannot parse %q", x)
			}
			return f, nil
		default:
			return nil, errAt(pos, "num needs a number, bool or string, got %s", typeName(args[0]))
		}
	}},

	{name: "format", fn: func(in *interp, pos Pos, args []Value) (Value, error) {
		if len(args) < 1 {
			return nil, errAt(pos, "format takes a format string and values")
		}
		f, err := wantString("format", pos, args[0])
		if err != nil {
			return nil, err
		}
		// %d is the one verb whose Go meaning mismatches float64-only
		// numbers; convert integral floats so format("%d", 3) works.
		rest := make([]any, len(args)-1)
		for i, a := range args[1:] {
			if fl, ok := a.(float64); ok && fl == math.Trunc(fl) && !math.IsInf(fl, 0) && strings.Contains(f, "%d") {
				rest[i] = int64(fl)
				continue
			}
			rest[i] = a
		}
		out := fmt.Sprintf(f, rest...)
		if err := in.charge(16 + int64(len(out))); err != nil {
			return nil, err
		}
		return out, nil
	}},

	{name: "copy", fn: func(in *interp, pos Pos, args []Value) (Value, error) {
		if err := argCount("copy", pos, args, 1, 1); err != nil {
			return nil, err
		}
		if err := in.chargeValue(args[0]); err != nil {
			return nil, err
		}
		return deepCopy(args[0], 0)
	}},

	{name: "join", fn: func(in *interp, pos Pos, args []Value) (Value, error) {
		if err := argCount("join", pos, args, 2, 2); err != nil {
			return nil, err
		}
		l, err := wantList("join", pos, args[0])
		if err != nil {
			return nil, err
		}
		sep, err := wantString("join", pos, args[1])
		if err != nil {
			return nil, err
		}
		parts := make([]string, len(l.Elems))
		total := 0
		for i, e := range l.Elems {
			s, ok := e.(string)
			if !ok {
				return nil, errAt(pos, "join needs a list of strings, got %s", typeName(e))
			}
			parts[i] = s
			total += len(s) + len(sep)
		}
		if err := in.charge(16 + int64(total)); err != nil {
			return nil, err
		}
		return strings.Join(parts, sep), nil
	}},
}

// foldBuiltin builds min/max over a list or over varargs.
func foldBuiltin(name string, f func(a, b float64) float64) func(in *interp, pos Pos, args []Value) (Value, error) {
	return func(in *interp, pos Pos, args []Value) (Value, error) {
		vals := args
		if len(args) == 1 {
			l, ok := args[0].(*List)
			if !ok {
				return nil, errAt(pos, "%s takes numbers or one list of numbers", name)
			}
			vals = l.Elems
		}
		if len(vals) == 0 {
			return nil, errAt(pos, "%s of an empty list", name)
		}
		if err := in.step(int64(len(vals))); err != nil {
			return nil, err
		}
		acc, ok := vals[0].(float64)
		if !ok {
			return nil, errAt(pos, "%s needs numbers, got %s", name, typeName(vals[0]))
		}
		for _, v := range vals[1:] {
			x, ok := v.(float64)
			if !ok {
				return nil, errAt(pos, "%s needs numbers, got %s", name, typeName(v))
			}
			acc = f(acc, x)
		}
		return acc, nil
	}
}
