package colbatch

import (
	"bytes"
	"encoding/json"
	"testing"

	"act/internal/report"
	"act/internal/scenario"
)

// docSink rebuilds a compact JSON document from Walk's events with the
// encoders appendDocTo uses, and checks each object's and array's declared
// size against what was emitted into it.
type docSink struct {
	t     *testing.T
	buf   []byte
	stack []sinkLevel
	calls int
}

type sinkLevel struct {
	close    byte
	key      string
	declared int
	emitted  int
}

func (s *docSink) open(key string, n int, open, close byte) {
	s.value(key)
	s.buf = append(s.buf, open)
	s.stack = append(s.stack, sinkLevel{close: close, key: key, declared: n})
}

// value writes the separator and key before one value in the current
// object or array.
func (s *docSink) value(key string) {
	s.calls++
	if len(s.stack) > 0 {
		top := &s.stack[len(s.stack)-1]
		if top.emitted > 0 {
			s.buf = append(s.buf, ',')
		}
		top.emitted++
	}
	if key != "" {
		s.buf = report.AppendJSONString(s.buf, key)
		s.buf = append(s.buf, ':')
	}
}

func (s *docSink) Object(key string, n int) { s.open(key, n, '{', '}') }
func (s *docSink) Array(key string, n int)  { s.open(key, n, '[', ']') }

func (s *docSink) End() {
	s.calls++
	top := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	if top.emitted != top.declared {
		s.t.Errorf("%q declared %d entries, emitted %d", top.key, top.declared, top.emitted)
	}
	s.buf = append(s.buf, top.close)
}

func (s *docSink) String(key, v string) {
	s.value(key)
	s.buf = report.AppendJSONString(s.buf, v)
}

func (s *docSink) Float(key string, f float64) {
	s.value(key)
	var ok bool
	if s.buf, ok = report.AppendJSONFloat(s.buf, f); !ok {
		s.t.Errorf("%q: Walk emitted non-finite %v", key, f)
	}
}

// TestWalkMatchesDoc holds Walk to the document encoder: for every valid
// variant the events rebuild Doc(i) byte for byte once both are compact,
// and an item the oracle answered or that failed reports false and emits
// nothing.
func TestWalkMatchesDoc(t *testing.T) {
	oracleAnswered := &scenario.Spec{
		Name:  "oracle-answered",
		Logic: []scenario.LogicSpec{{Name: "l", AreaMM2: 10, Node: "7nm", Count: 1 << 31}},
		Usage: scenario.UsageSpec{PowerW: 1, AppHours: 1},
	}
	specs := append(variants(), oracleAnswered)
	valid := len(specs) - 1
	specs = append(specs, invalids()...)
	r := Eval(specs)
	defer r.Close()

	for i, spec := range specs {
		s := &docSink{t: t}
		walked := r.Walk(i, s)
		if i >= valid {
			if walked || s.calls != 0 {
				t.Errorf("item %d (%q): Walk = %v after %d events, want false and none", i, spec.Name, walked, s.calls)
			}
			continue
		}
		if !walked {
			t.Errorf("item %d (%q): Walk = false on a columnar item", i, spec.Name)
			continue
		}
		if len(s.stack) != 0 {
			t.Errorf("item %d (%q): %d levels left open", i, spec.Name, len(s.stack))
		}
		var want bytes.Buffer
		if err := json.Compact(&want, r.Doc(i)); err != nil {
			t.Fatalf("item %d (%q): %v", i, spec.Name, err)
		}
		if !bytes.Equal(s.buf, want.Bytes()) {
			t.Errorf("item %d (%q): walked document differs from Doc\n got %s\nwant %s", i, spec.Name, s.buf, want.Bytes())
		}
	}
	if r.Err(valid) != nil {
		t.Errorf("the oracle-answered item failed: %v", r.Err(valid))
	}
}
