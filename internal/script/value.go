package script

import (
	"fmt"
	"maps"
	"slices"

	"act/internal/report"
)

// Value is a script runtime value: nil, bool, float64, string, *List,
// *Map, *Func or *Builtin. Lists and maps are mutable references, as in
// Python; numbers are always float64, as in JSON.
type Value any

// List is a mutable ordered sequence.
type List struct {
	Elems []Value
}

// Len and Elem make a list a scenario.Array, so the wire decoder walks it.
func (l *List) Len() int       { return len(l.Elems) }
func (l *List) Elem(i int) any { return l.Elems[i] }

// Map is a mutable string-keyed map that remembers insertion order, so
// iteration and JSON encoding are deterministic — a requirement for
// byte-identical surfaces and replayable step counts. Keys and values sit
// in two parallel slices; a map has no delete, so an entry keeps its
// position for life. Small maps (scenarios, result documents) find a key
// by scanning; past mapIndexMin keys an index takes over.
type Map struct {
	keys  []string
	vals  []Value
	index map[string]int // nil until len(keys) > mapIndexMin
}

// mapIndexMin is the most keys a map finds by scanning alone.
const mapIndexMin = 8

// NewMap returns an empty ordered map.
func NewMap() *Map { return &Map{} }

// newMapCap returns an empty ordered map with room for n entries.
func newMapCap(n int) *Map {
	return &Map{keys: make([]string, 0, n), vals: make([]Value, 0, n)}
}

// Len returns the number of entries.
func (m *Map) Len() int { return len(m.keys) }

// Member returns entry i, making a map a scenario.Object.
func (m *Map) Member(i int) (string, any) { return m.keys[i], m.vals[i] }

// Keys returns the keys in insertion order. The slice is shared; callers
// must not mutate it.
func (m *Map) Keys() []string { return m.keys }

// find returns key's position, or -1.
func (m *Map) find(key string) int {
	if m.index != nil {
		if i, ok := m.index[key]; ok {
			return i
		}
		return -1
	}
	for i, k := range m.keys {
		if k == key {
			return i
		}
	}
	return -1
}

// Get returns the value for key and whether it exists.
func (m *Map) Get(key string) (Value, bool) {
	if i := m.find(key); i >= 0 {
		return m.vals[i], true
	}
	return nil, false
}

// Set inserts or overwrites key. A new key appends to the order.
func (m *Map) Set(key string, v Value) {
	if i := m.find(key); i >= 0 {
		m.vals[i] = v
		return
	}
	m.add(key, v)
}

// add appends key, which the map does not hold.
func (m *Map) add(key string, v Value) {
	m.keys = append(m.keys, key)
	m.vals = append(m.vals, v)
	switch n := len(m.keys); {
	case m.index != nil:
		m.index[key] = n - 1
	case n > mapIndexMin:
		m.index = make(map[string]int, 2*n)
		for i, k := range m.keys {
			m.index[k] = i
		}
	}
}

// Func is a user-defined function closing over its definition
// environment.
type Func struct {
	name   string
	params []string
	body   []stmt
	env    *env
}

// Builtin is a host-provided function.
type Builtin struct {
	name string
	fn   func(in *interp, pos Pos, args []Value) (Value, error)
}

// typeName names a value's type for error messages.
func typeName(v Value) string {
	switch v.(type) {
	case nil:
		return "nil"
	case bool:
		return "bool"
	case float64:
		return "number"
	case string:
		return "string"
	case *List:
		return "list"
	case *Map:
		return "map"
	case *Func, *Builtin:
		return "function"
	default:
		return fmt.Sprintf("%T", v)
	}
}

// maxValueDepth bounds recursion over values (equality, copy, encode) so
// reference cycles a program can build (l = [ ]; append(l, l)) fail with
// a script error instead of unbounded recursion.
const maxValueDepth = 128

var errTooDeep = &Error{Msg: fmt.Sprintf("value nests deeper than %d levels (reference cycle?)", maxValueDepth)}

// deepEqual compares two values structurally, depth-capped.
func deepEqual(a, b Value, depth int) (bool, error) {
	if depth > maxValueDepth {
		return false, errTooDeep
	}
	switch x := a.(type) {
	case nil:
		return b == nil, nil
	case bool:
		y, ok := b.(bool)
		return ok && x == y, nil
	case float64:
		y, ok := b.(float64)
		return ok && x == y, nil
	case string:
		y, ok := b.(string)
		return ok && x == y, nil
	case *List:
		y, ok := b.(*List)
		if !ok {
			return false, nil
		}
		if x == y {
			return true, nil
		}
		if len(x.Elems) != len(y.Elems) {
			return false, nil
		}
		for i := range x.Elems {
			eq, err := deepEqual(x.Elems[i], y.Elems[i], depth+1)
			if err != nil || !eq {
				return false, err
			}
		}
		return true, nil
	case *Map:
		y, ok := b.(*Map)
		if !ok {
			return false, nil
		}
		if x == y {
			return true, nil
		}
		if len(x.keys) != len(y.keys) {
			return false, nil
		}
		for i, k := range x.keys {
			yv, ok := y.Get(k)
			if !ok {
				return false, nil
			}
			eq, err := deepEqual(x.vals[i], yv, depth+1)
			if err != nil || !eq {
				return false, err
			}
		}
		return true, nil
	default:
		// Functions compare by identity.
		return a == b, nil
	}
}

// sizeOf estimates the allocation cost of materializing v once: the
// per-value overhead plus string bytes and container headers. Used to
// charge the alloc budget before copies and emits.
func sizeOf(v Value, depth int) (int64, error) {
	if depth > maxValueDepth {
		return 0, errTooDeep
	}
	switch x := v.(type) {
	case string:
		return 16 + int64(len(x)), nil
	case *List:
		n := int64(24)
		for _, e := range x.Elems {
			s, err := sizeOf(e, depth+1)
			if err != nil {
				return 0, err
			}
			n += 16 + s
		}
		return n, nil
	case *Map:
		n := int64(48)
		for i, k := range x.keys {
			s, err := sizeOf(x.vals[i], depth+1)
			if err != nil {
				return 0, err
			}
			n += 32 + int64(len(k)) + s
		}
		return n, nil
	default:
		return 16, nil
	}
}

// deepCopy clones v so later mutation of the original cannot reach the
// copy. Functions are shared (immutable once built). The caller has
// already charged the alloc budget via sizeOf.
func deepCopy(v Value, depth int) (Value, error) {
	if depth > maxValueDepth {
		return nil, errTooDeep
	}
	switch x := v.(type) {
	case *List:
		out := &List{Elems: make([]Value, len(x.Elems))}
		for i, e := range x.Elems {
			c, err := deepCopy(e, depth+1)
			if err != nil {
				return nil, err
			}
			out.Elems[i] = c
		}
		return out, nil
	case *Map:
		out := &Map{keys: slices.Clone(x.keys), vals: make([]Value, len(x.vals)), index: maps.Clone(x.index)}
		for i, v := range x.vals {
			c, err := deepCopy(v, depth+1)
			if err != nil {
				return nil, err
			}
			out.vals[i] = c
		}
		return out, nil
	default:
		return v, nil
	}
}

// appendValueJSON appends v as JSON with map keys in insertion order.
// At indent >= 0 it replicates encoding/json's MarshalIndent layout (two
// spaces a level) starting at that level; at indent < 0 it writes compact
// JSON, counting the nesting down from -1. Functions are not encodable.
func appendValueJSON(buf []byte, v Value, indent int) ([]byte, error) {
	inner, colon := indent+1, ": "
	if indent < 0 {
		inner, colon = indent-1, ":"
	}
	if indent > maxValueDepth || indent < -maxValueDepth-1 {
		return nil, errTooDeep
	}
	switch x := v.(type) {
	case nil:
		return append(buf, "null"...), nil
	case bool:
		if x {
			return append(buf, "true"...), nil
		}
		return append(buf, "false"...), nil
	case float64:
		if num, ok := report.AppendJSONFloat(buf, x); ok {
			return num, nil
		}
		return append(buf, "null"...), nil // NaN and ±Inf have no JSON form
	case string:
		return report.AppendJSONString(buf, x), nil
	case *List:
		if len(x.Elems) == 0 {
			return append(buf, "[]"...), nil
		}
		buf = append(buf, '[')
		for i, e := range x.Elems {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendIndent(buf, inner)
			var err error
			if buf, err = appendValueJSON(buf, e, inner); err != nil {
				return nil, err
			}
		}
		buf = appendIndent(buf, indent)
		return append(buf, ']'), nil
	case *Map:
		if len(x.keys) == 0 {
			return append(buf, "{}"...), nil
		}
		buf = append(buf, '{')
		for i, k := range x.keys {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendIndent(buf, inner)
			buf = report.AppendJSONString(buf, k)
			buf = append(buf, colon...)
			var err error
			if buf, err = appendValueJSON(buf, x.vals[i], inner); err != nil {
				return nil, err
			}
		}
		buf = appendIndent(buf, indent)
		return append(buf, '}'), nil
	default:
		return nil, &Error{Msg: fmt.Sprintf("a %s value cannot be encoded to JSON", typeName(v))}
	}
}

// appendIndent starts a new line at the given level; compact levels
// (below zero) get nothing.
func appendIndent(buf []byte, level int) []byte {
	if level < 0 {
		return buf
	}
	buf = append(buf, '\n')
	for i := 0; i < level; i++ {
		buf = append(buf, "  "...)
	}
	return buf
}
