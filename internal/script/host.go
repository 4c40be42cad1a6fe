package script

import (
	"context"
	"fmt"
	"strings"

	"act/internal/acterr"
	"act/internal/colbatch"
	"act/internal/dse"
	"act/internal/metrics"
	"act/internal/scenario"
	"act/internal/units"
)

// Host-call surcharges, in budget steps. A model evaluation is orders of
// magnitude more work than an AST node, so host calls bill accordingly —
// the step budget then bounds host work too, not just interpreter work.
const (
	stepsPerFootprint = 100
	stepsPerCandidate = 10
)

// hostChunk is how many scenarios one colbatch call evaluates between
// context polls, so a deadline can cancel mid-host-call on large sweeps.
const hostChunk = colbatch.DefaultChunk

// registerHost installs the model-facing builtins.
func registerHost(scope *env) {
	for _, b := range []*Builtin{
		{name: "footprint", fn: hostFootprint},
		{name: "footprint_doc", fn: hostFootprintDoc},
		{name: "pareto", fn: hostPareto},
		{name: "rank", fn: hostRank},
		{name: "emit", fn: hostEmit},
	} {
		scope.vars[b.name] = b
	}
}

// specFromValue converts a script map into a wire scenario. The wire
// decoder walks the map directly, through its own key tables; whatever
// that walk declines goes to specFromJSON, the oracle whose errors are the
// contract. So scripts get exactly the validation surface of the HTTP and
// CLI layers (unknown fields rejected, same error texts). Item i of a
// list names itself "scenario [i]" in the error; i < 0 marks a lone
// scenario, whose decoder errors read "invalid scenario". need is the
// calling builtin's statement of the forms it takes, for a non-map v.
func specFromValue(pos Pos, i int, v Value, need string) (*scenario.Spec, error) {
	m, ok := v.(*Map)
	if !ok {
		return nil, errAt(pos, "%s", itemMsg(i, need+", got "+typeName(v)))
	}
	d := scenario.NewTreeDecoder(m)
	if spec, err := d.Spec(); d.End() && err == nil {
		return spec, nil
	}
	return specFromJSON(pos, i, m)
}

// specFromJSON renders m as JSON and decodes it with scenario.Unmarshal,
// the strict decoder of the HTTP and CLI layers.
func specFromJSON(pos Pos, i int, m *Map) (*scenario.Spec, error) {
	data, err := appendValueJSON(nil, m, -1)
	if err != nil {
		if i < 0 {
			return nil, err
		}
		// The writer's errors may be shared (errTooDeep): wrap, never edit.
		return nil, &Error{Pos: pos, Msg: itemMsg(i, err.(*Error).Msg), Err: err}
	}
	spec, err := scenario.Unmarshal(data)
	if err != nil {
		msg := itemMsg(i, err.Error())
		if i < 0 {
			msg = "invalid scenario: " + msg
		}
		return nil, &Error{Pos: pos, Msg: msg, Err: err}
	}
	return spec, nil
}

// itemMsg names item i of a list (i >= 0) in msg.
func itemMsg(i int, msg string) string {
	if i < 0 {
		return msg
	}
	return fmt.Sprintf("scenario [%d]: %s", i, msg)
}

// resultValue builds item i of res as a script value, charging twice the
// document's length whichever way it is built. An item the columnar
// engine evaluated is built from its columns by Results.Walk, in document
// order and with the very floats the document encodes; an item the
// scalar oracle answered exists only as its document, which decodeDoc
// parses.
func resultValue(in *interp, res *colbatch.Results, i int, d *docBuilder) (Value, error) {
	doc := res.Doc(i)
	if err := in.charge(int64(len(doc)) * 2); err != nil {
		return nil, err
	}
	d.root = nil
	if res.Walk(i, d) {
		return d.root, nil
	}
	return decodeDoc(doc)
}

// docBuilder is the colbatch.Sink that assembles a result document as
// ordered maps and lists. Result strings are valid UTF-8 (the wire
// decoder takes no other), so they are the strings a parse of the
// document would give.
type docBuilder struct {
	root  Value
	stack []Value // the open maps and lists, innermost last
}

func (d *docBuilder) put(key string, v Value) {
	if len(d.stack) == 0 {
		d.root = v
		return
	}
	switch c := d.stack[len(d.stack)-1].(type) {
	case *Map:
		c.add(key, v) // a document repeats no key
	case *List:
		c.Elems = append(c.Elems, v)
	}
}

func (d *docBuilder) Object(key string, n int) {
	m := newMapCap(n)
	d.put(key, m)
	d.stack = append(d.stack, m)
}

func (d *docBuilder) Array(key string, n int) {
	l := &List{Elems: make([]Value, 0, n)}
	d.put(key, l)
	d.stack = append(d.stack, l)
}

func (d *docBuilder) End()                        { d.stack = d.stack[:len(d.stack)-1] }
func (d *docBuilder) String(key, s string)        { d.put(key, s) }
func (d *docBuilder) Float(key string, f float64) { d.put(key, f) }

// decodeDoc builds a result document's values by evaluating it as a
// program: a JSON object with quoted keys is a map literal, and its keys,
// strings and float bits come out as a JSON decode gives them. It runs
// under an interpreter of its own, outside the program's budget.
func decodeDoc(doc []byte) (Value, error) {
	prog, err := Parse(string(doc))
	var v Value
	if err == nil {
		bg := context.Background()
		v, err = (&interp{ctx: bg, outerCtx: bg}).run(prog)
	}
	if err != nil {
		return nil, &Error{Msg: fmt.Sprintf("internal: decoding result document: %v", err), Err: err}
	}
	return v, nil
}

// evalFootprints is the one path from scenario maps to model results:
// footprint() and footprint_doc() both run through it. It bills
// stepsPerFootprint a scenario, converts every item to a spec, then runs
// the specs through the columnar batch engine hostChunk at a time,
// polling the context before each chunk so a deadline cancels a large
// sweep mid-host-call, and hands each result to each in order. In the
// list form (list set) items name themselves "scenario [i]" in errors
// and the result list's header is charged before any evaluation. need
// names the builtin and its forms in the error for a non-map item.
func (in *interp) evalFootprints(pos Pos, items []Value, list bool, need string, each func(res *colbatch.Results, i int) error) error {
	if err := in.step(stepsPerFootprint * int64(len(items))); err != nil {
		return err
	}
	specs := make([]*scenario.Spec, len(items))
	for i, v := range items {
		// Spec conversion is JSON-priced per item; poll the context so a
		// deadline cancels during conversion of a huge list, not after it.
		if i%hostChunk == 0 {
			if err := in.checkCtx(); err != nil {
				return err
			}
		}
		item := -1
		if list {
			item = i
		}
		spec, err := specFromValue(pos, item, v, need)
		if err != nil {
			return err
		}
		specs[i] = spec
	}
	if list {
		if err := in.charge(24 + 16*int64(len(specs))); err != nil {
			return err
		}
	}
	for lo := 0; lo < len(specs); lo += hostChunk {
		if err := in.checkCtx(); err != nil {
			return err
		}
		if err := evalChunk(pos, specs[lo:min(lo+hostChunk, len(specs))], lo, list, each); err != nil {
			return err
		}
	}
	return nil
}

// evalChunk evaluates specs, items lo onwards, and hands each result to
// each before the batch's pooled arena is released.
func evalChunk(pos Pos, specs []*scenario.Spec, lo int, list bool, each func(res *colbatch.Results, i int) error) error {
	res := colbatch.Eval(specs)
	defer res.Close()
	for i := 0; i < res.Len(); i++ {
		if err := res.Err(i); err != nil {
			if list {
				err = fmt.Errorf("scenario [%d]: %w", lo+i, err)
			}
			return hostEvalError(pos, err)
		}
		if err := each(res, i); err != nil {
			return err
		}
	}
	return nil
}

// hostFootprint is footprint(spec-map) → result map, or
// footprint(list-of-spec-maps) → list of result maps.
func hostFootprint(in *interp, pos Pos, args []Value) (Value, error) {
	if err := argCount("footprint", pos, args, 1, 1); err != nil {
		return nil, err
	}
	l, list := args[0].(*List)
	items := args
	if list {
		items = l.Elems
	}
	out := make([]Value, 0, len(items))
	d := &docBuilder{}
	err := in.evalFootprints(pos, items, list, "footprint needs a scenario map or a list of them", func(res *colbatch.Results, i int) error {
		v, err := resultValue(in, res, i, d)
		out = append(out, v)
		return err
	})
	switch {
	case err != nil:
		return nil, err
	case list:
		return &List{Elems: out}, nil
	default:
		return out[0], nil
	}
}

// hostFootprintDoc is footprint_doc(spec-map) → the canonical result
// document as a string, byte-identical to what POST /v1/footprint and
// `act` emit for the same scenario. This is the primitive the
// conformance surface leans on.
func hostFootprintDoc(in *interp, pos Pos, args []Value) (Value, error) {
	if err := argCount("footprint_doc", pos, args, 1, 1); err != nil {
		return nil, err
	}
	var doc string
	err := in.evalFootprints(pos, args, false, "footprint_doc needs a scenario map", func(res *colbatch.Results, i int) error {
		doc = string(res.Doc(i))
		return in.charge(16 + int64(len(doc)))
	})
	if err != nil {
		return nil, err
	}
	return doc, nil
}

// hostEvalError wraps a model-evaluation failure. Validation failures
// (unknown node, bad field) become script errors — the program passed a
// bad scenario; infrastructure errors pass through untouched so the
// serving layer can classify them (transient fault, timeout).
func hostEvalError(pos Pos, err error) error {
	if acterr.IsInvalid(err) {
		return &Error{Pos: pos, Msg: err.Error(), Err: err}
	}
	return err
}

// hostPareto is pareto(points, fields) → the non-dominated subset of
// points (maps) under lower-is-better on every named numeric field,
// preserving input order. The frontier is dse.NonDominated, the core
// /v1/sweep's frontier runs, so a NaN field reads as +Inf there too.
func hostPareto(in *interp, pos Pos, args []Value) (Value, error) {
	if err := argCount("pareto", pos, args, 2, 2); err != nil {
		return nil, err
	}
	pts, err := wantList("pareto", pos, args[0])
	if err != nil {
		return nil, err
	}
	fl, err := wantList("pareto", pos, args[1])
	if err != nil {
		return nil, err
	}
	if len(fl.Elems) == 0 {
		return nil, errAt(pos, "pareto needs at least one field name")
	}
	fields := make([]string, len(fl.Elems))
	for i, f := range fl.Elems {
		s, ok := f.(string)
		if !ok {
			return nil, errAt(pos, "pareto field names must be strings, got %s", typeName(f))
		}
		fields[i] = s
	}
	n := len(pts.Elems)
	// Dominance is O(n²·fields); bill it so the step budget bounds it.
	if err := in.step(int64(n) * int64(n) * int64(len(fields)) / 4); err != nil {
		return nil, err
	}
	coords := make([][]float64, n)
	for i, p := range pts.Elems {
		m, ok := p.(*Map)
		if !ok {
			return nil, errAt(pos, "pareto points must be maps, got %s", typeName(p))
		}
		row := make([]float64, len(fields))
		for j, f := range fields {
			v, ok := m.Get(f)
			if !ok {
				return nil, errAt(pos, "pareto point [%d] has no field %q", i, f)
			}
			x, ok := v.(float64)
			if !ok {
				return nil, errAt(pos, "pareto field %q of point [%d] is a %s, need a number", f, i, typeName(v))
			}
			row[j] = x
		}
		coords[i] = row
	}
	keep, err := dse.NonDominated(in.ctx, coords)
	if err != nil {
		// Only a done context fails the frontier; checkCtx attributes it
		// to the caller or to the script's own deadline.
		if cerr := in.checkCtx(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	out := &List{}
	for i, k := range keep {
		if k {
			out.Elems = append(out.Elems, pts.Elems[i])
		}
	}
	if err := in.charge(24 + 16*int64(len(out.Elems))); err != nil {
		return nil, err
	}
	return out, nil
}

// hostRank is rank(metric, candidates) → candidates scored and sorted
// best-first under a Table 2 metric, mirroring the POST /v1/sweep rank
// section. Candidates are maps with name / embodied_g / energy_j /
// delay_s / area_mm2 fields (area optional unless the metric needs it).
func hostRank(in *interp, pos Pos, args []Value) (Value, error) {
	if err := argCount("rank", pos, args, 2, 2); err != nil {
		return nil, err
	}
	name, err := wantString("rank", pos, args[0])
	if err != nil {
		return nil, err
	}
	l, err := wantList("rank", pos, args[1])
	if err != nil {
		return nil, err
	}
	if err := in.step(stepsPerCandidate * int64(len(l.Elems))); err != nil {
		return nil, err
	}
	m := metrics.Metric(strings.ToUpper(strings.TrimSpace(name)))
	cands := make([]metrics.Candidate, len(l.Elems))
	for i, e := range l.Elems {
		cm, ok := e.(*Map)
		if !ok {
			return nil, errAt(pos, "rank candidates must be maps, got %s", typeName(e))
		}
		c := metrics.Candidate{}
		if v, ok := cm.Get("name"); ok {
			if s, ok := v.(string); ok {
				c.Name = s
			}
		}
		if c.Name == "" {
			return nil, errAt(pos, "rank candidate [%d] needs a \"name\" string", i)
		}
		num := func(field string) (float64, error) {
			v, ok := cm.Get(field)
			if !ok {
				return 0, nil
			}
			f, ok := v.(float64)
			if !ok {
				return 0, errAt(pos, "rank candidate [%d] field %q is a %s, need a number", i, field, typeName(v))
			}
			return f, nil
		}
		eg, err := num("embodied_g")
		if err != nil {
			return nil, err
		}
		ej, err := num("energy_j")
		if err != nil {
			return nil, err
		}
		ds, err := num("delay_s")
		if err != nil {
			return nil, err
		}
		am, err := num("area_mm2")
		if err != nil {
			return nil, err
		}
		c.Embodied = units.Grams(eg)
		c.Energy = units.Joules(ej)
		if c.Delay, err = metrics.DelayFromSeconds(ds); err != nil {
			return nil, errAt(pos, "rank candidate [%d]: %v", i, err)
		}
		c.Area = units.MM2(am)
		if err := c.Validate(); err != nil {
			return nil, errAt(pos, "rank candidate [%d]: %v", i, err)
		}
		cands[i] = c
	}
	ranked, err := metrics.Rank(m, cands)
	if err != nil {
		return nil, errAt(pos, "rank: %v", err)
	}
	out := &List{Elems: make([]Value, 0, len(ranked))}
	if err := in.charge(24 + 96*int64(len(ranked))); err != nil {
		return nil, err
	}
	for _, sc := range ranked {
		row := NewMap()
		row.Set("name", sc.Candidate.Name)
		row.Set("value", sc.Value)
		out.Elems = append(out.Elems, row)
	}
	return out, nil
}

// hostEmit is emit(name, value): appends a named deep-copied snapshot to
// the result envelope's emits list.
func hostEmit(in *interp, pos Pos, args []Value) (Value, error) {
	if err := argCount("emit", pos, args, 2, 2); err != nil {
		return nil, err
	}
	name, err := wantString("emit", pos, args[0])
	if err != nil {
		return nil, err
	}
	if err := in.chargeValue(args[1]); err != nil {
		return nil, err
	}
	snap, err := deepCopy(args[1], 0)
	if err != nil {
		return nil, err
	}
	in.emits = append(in.emits, Emit{Name: name, Value: snap})
	return nil, nil
}
