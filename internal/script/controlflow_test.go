package script

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// TestControlFlowPinned pins the step count and value, or the full error
// text and position, of every way a loop or a call can end: while and
// for-in over a list, a map and a string, each left by break and by
// continue; a map and a list mutated while they are iterated; a return
// from inside a loop inside a function; and break/continue escaping at
// top level and from a function, where the error names the outermost
// statement the transfer escaped from.
func TestControlFlowPinned(t *testing.T) {
	cases := []struct {
		name, src string
		want      string // the compact result envelope, or the error text
	}{
		{"while break", "let i = 0\nlet n = 0\nfor i < 10 {\n  i = i + 1\n  if i == 4 { break }\n  n = n + i\n}\n[i, n]",
			`{"output":[4,6],"steps":69}`},
		{"while continue", "let i = 0\nlet n = 0\nfor i < 6 {\n  i = i + 1\n  if i % 2 == 0 { continue }\n  n = n + i\n}\n[i, n]",
			`{"output":[6,9],"steps":108}`},
		{"list break", "let n = 0\nfor i, x in [5, 6, 7, 8] {\n  if x == 7 { break }\n  n = n + i * x\n}\nn",
			`{"output":6,"steps":38}`},
		{"list continue", "let n = 0\nfor x in [5, 6, 7, 8] {\n  if x == 6 { continue }\n  n = n + x\n}\nn",
			`{"output":20,"steps":43}`},
		{"map break", "let ks = []\nfor k, v in ({\"a\": 1, \"b\": 2, \"c\": 3}) {\n  if v == 2 { break }\n  ks = append(ks, k)\n}\nks",
			`{"output":["a"],"steps":25}`},
		{"map continue", "let ks = []\nfor k, v in ({\"a\": 1, \"b\": 2, \"c\": 3}) {\n  if v == 2 { continue }\n  ks = append(ks, k + str(v))\n}\nks",
			`{"output":["a1","c3"],"steps":43}`},
		{"string break", "let s = \"\"\nfor c in \"héllo\" {\n  if c == \"l\" { break }\n  s = s + c\n}\ns",
			`{"output":"hé","steps":30}`},
		{"string continue", "let s = \"\"\nfor c in \"héllo\" {\n  if c == \"l\" { continue }\n  s = s + c\n}\ns",
			`{"output":"héo","steps":45}`},
		{"map mutated while iterated", "let m = {\"a\": 1, \"b\": 2}\nlet seen = []\nfor k, v in m {\n  m[\"b\"] = 20\n  m[\"c\"] = 3\n  seen = append(seen, [k, v])\n}\n[seen, keys(m)]",
			`{"output":[[["a",1],["b",20]],["a","b","c"]],"steps":46}`},
		{"list mutated while iterated", "let l = [1, 2]\nlet seen = []\nfor x in l {\n  l[1] = 9\n  append(l, 3)\n  seen = append(seen, x)\n}\n[seen, l]",
			`{"output":[[1,9],[1,9,3,3]],"steps":42}`},
		{"return from a loop in a function", "fn first(l, lim) {\n  for x in l {\n    let i = 0\n    for true {\n      i = i + 1\n      if i > 2 { break }\n    }\n    if x > lim { return x }\n  }\n  return -1\n}\n[first([1, 5, 9], 4), first([1], 4)]",
			`{"output":[5,-1],"steps":138}`},
		{"return from a loop at top level", "for x in [1, 2, 3] {\n  if x == 2 { return x * 10 }\n}\n99",
			`{"output":20,"steps":19}`},
		{"emit in a loop", "for i in range(3) {\n  if i == 1 { continue }\n  emit(\"i\", i)\n}",
			`{"output":null,"emits":[{"name":"i","value":0},{"name":"i","value":2}],"steps":33}`},
		{"break at top level", "let x = 1\nif x == 1 {\n  break\n}", "script:2:1: break outside a loop"},
		{"continue at top level", "let x = 1\nfor x in [1] { }\ncontinue", "script:3:1: continue outside a loop"},
		{"break from a function", "fn f() {\n  let y = 2\n  if y == 2 {\n    break\n  }\n}\nfor x in [1] { f() }", "script:3:3: break outside a loop"},
		{"continue from a function", "fn f() {\n  continue\n}\nlet i = 0\nfor i < 1 { i = i + 1\n  f() }", "script:2:3: continue outside a loop"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Eval(context.Background(), c.src, Options{})
			var got string
			if err != nil {
				got = err.Error()
			} else {
				var buf, compact bytes.Buffer
				if err := res.Encode(&buf); err != nil {
					t.Fatal(err)
				}
				if err := json.Compact(&compact, buf.Bytes()); err != nil {
					t.Fatal(err)
				}
				got = compact.String()
			}
			if got != c.want {
				t.Errorf("got  %s\nwant %s", got, c.want)
			}
		})
	}
}
