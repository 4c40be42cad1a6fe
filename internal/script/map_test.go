package script

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestMapSmallAndIndexed drives a map across mapIndexMin: lookups, an
// overwrite that keeps its position, equality, copies and encode order
// must read the same on both sides of the index, and a for-in walks a
// snapshot of the keys while its body adds keys and overwrites values.
func TestMapSmallAndIndexed(t *testing.T) {
	m := NewMap()
	var keys []string
	for i := 0; i < 2*mapIndexMin; i++ {
		k := fmt.Sprintf("k%d", i)
		keys = append(keys, k)
		m.Set(k, float64(i))
		if indexed := m.index != nil; indexed != (m.Len() > mapIndexMin) {
			t.Fatalf("%d keys: indexed %v", m.Len(), indexed)
		}
		m.Set(keys[0], float64(-i)) // an overwrite appends nothing
		for j, k := range keys {
			want := float64(j)
			if j == 0 {
				want = float64(-i)
			}
			if v, ok := m.Get(k); !ok || v != want {
				t.Fatalf("%d keys: Get(%q) = %v, %v; want %v", m.Len(), k, v, ok, want)
			}
		}
		if _, ok := m.Get("absent"); ok {
			t.Fatalf("%d keys: Get found an absent key", m.Len())
		}
		if !slices.Equal(m.Keys(), keys) {
			t.Fatalf("keys %q, want %q", m.Keys(), keys)
		}

		c, err := deepCopy(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		cp := c.(*Map)
		if eq, err := deepEqual(m, cp, 0); err != nil || !eq {
			t.Fatalf("%d keys: copy is not equal (%v)", m.Len(), err)
		}
		cp.Set(keys[0], "changed")
		cp.Set("extra", nil)
		if v, _ := m.Get(keys[0]); v != float64(-i) || m.Len() != len(keys) {
			t.Fatalf("%d keys: writing the copy reached the original", m.Len())
		}
		if eq, _ := deepEqual(m, cp, 0); eq {
			t.Fatalf("%d keys: a changed copy still compares equal", m.Len())
		}

		// Equality ignores order; encoding keeps it.
		rev := NewMap()
		for j := len(keys) - 1; j >= 0; j-- {
			v, _ := m.Get(keys[j])
			rev.Set(keys[j], v)
		}
		if eq, _ := deepEqual(m, rev, 0); !eq {
			t.Fatalf("%d keys: reordered map is not equal", m.Len())
		}
		got, err := appendValueJSON(nil, m, -1)
		if err != nil {
			t.Fatal(err)
		}
		var want strings.Builder
		for j, k := range keys {
			v, _ := m.Get(k)
			fmt.Fprintf(&want, ",%q:%v", k, v)
			if j == 0 {
				want.Reset()
				fmt.Fprintf(&want, "{%q:%v", k, v)
			}
		}
		want.WriteString("}")
		if string(got) != want.String() {
			t.Fatalf("encoded %s, want %s", got, want.String())
		}
	}

	// The walk covers the keys present when it began, each read with its
	// value at that pass, whichever side of the index the map starts on.
	for _, n := range []int{2, mapIndexMin, mapIndexMin + 3} {
		src := fmt.Sprintf(`let m = {}
for i in range(%d) { m[format("k%%d", i)] = i }
let seen = []
for k, v in m {
  append(seen, [k, v])
  m[k + "+"] = v
  m["k1"] = 100
}
[seen, len(m), m["k1"], m["k1+"]]`, n)
		out := evalValue(t, src).(*List).Elems
		seen := out[0].(*List).Elems
		if len(seen) != n || out[1] != float64(2*n) || out[2] != 100.0 || out[3] != 100.0 {
			t.Fatalf("n=%d: %d passes, len %v, k1 %v, k1+ %v", n, len(seen), out[1], out[2], out[3])
		}
		for i, p := range seen {
			kv := p.(*List).Elems
			want := float64(i)
			if i == 1 {
				want = 100 // overwritten by the first pass
			}
			if kv[0] != fmt.Sprintf("k%d", i) || kv[1] != want {
				t.Fatalf("n=%d: pass %d saw %v = %v, want k%d = %v", n, i, kv[0], kv[1], i, want)
			}
		}
	}
}
