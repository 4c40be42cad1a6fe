// The fast wire decoder. encoding/json is the oracle for the wire format:
// its error texts, field paths and merge rules are the contract. Decoding
// with it costs far more than evaluating a scenario, so the common case —
// a document a program wrote — goes through a hand-written single-pass
// decoder instead. That decoder handles only a subset of JSON on which it
// provably agrees with encoding/json:
//
//   - keys are exact field names (encoding/json also matches "NAME" to
//     "name");
//   - no key repeats within an object (encoding/json merges the second
//     value into the first);
//   - no null;
//   - strings carry no control bytes and only valid UTF-8 (encoding/json
//     rewrites invalid UTF-8 to U+FFFD); their escapes are decoded as
//     encoding/json decodes them, so scenario.Marshal's \u0026 and an
//     ASCII-only writer's \u00e9 stay on the fast path;
//   - numbers follow JSON's grammar and parse with strconv.ParseFloat, or
//     strconv.Atoi for the int fields.
//
// On any other input it declines, and the caller decodes the whole input
// again with encoding/json. A decline is never an error and never a
// partial result: errors always come from the oracle, so their texts are
// the oracle's by construction.
//
// The same decoder also walks a document another package has already
// parsed (NewTreeDecoder: a script's maps and lists), through the same
// key tables and cases, taking exactly the values whose JSON rendering
// the text path would take to the same result.

package scenario

import (
	"math"
	"slices"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// FastDecoder is a cursor over one JSON text for the fast decoding path.
// Its methods decode one value each; a value outside the fast subset
// makes the decoder decline, after which every method is a no-op that
// returns a zero value. Callers decode the whole text, then check End
// once and fall back to encoding/json when it is false. Object, Array,
// String, Float, Int and Skip are exported so other wire documents (a
// fleet device line, a /v1/sweep body) decode through the same cursor.
type FastDecoder struct {
	data []byte
	pos  int
	ok   bool
	tree bool // walking cur, not reading data
	cur  any  // in a tree walk, the value the next method decodes
}

// NewFastDecoder returns a decoder positioned at the start of data.
func NewFastDecoder(data []byte) *FastDecoder {
	return &FastDecoder{data: data, ok: true}
}

// Object and Array are the containers of a parsed document a tree
// decoder walks; strings are string and numbers float64. Members come in
// document order.
type (
	Object interface {
		Len() int
		Member(i int) (key string, v any)
	}
	Array interface {
		Len() int
		Elem(i int) any
	}
)

// NewTreeDecoder returns a decoder over the parsed document v. Besides
// what the text path declines, it declines a value of any other type
// (nil among them), a string that is not valid UTF-8, a NaN or infinite
// number, and for an int field a number that is not an integer of at
// most 2⁵³ in magnitude: the values whose JSON rendering encoding/json
// would refuse, zero, rewrite or round. Skip declines at once.
func NewTreeDecoder(v any) *FastDecoder {
	return &FastDecoder{ok: true, tree: true, cur: v}
}

// Pos is the offset of the next unread byte: after the last value
// decoded, or at the start of a field's value inside an Object callback.
func (d *FastDecoder) Pos() int { return d.pos }

// End reports whether everything decoded was inside the fast subset and
// only whitespace follows the last value.
func (d *FastDecoder) End() bool {
	d.skipSpace()
	return d.ok && d.pos == len(d.data)
}

func (d *FastDecoder) decline() { d.ok = false }

func (d *FastDecoder) skipSpace() {
	data, i := d.data, d.pos
	for i < len(data) && isSpace[data[i]] {
		i++
	}
	d.pos = i
}

// Byte tables for the scanning loops: JSON whitespace, and the bytes a
// fast-path string holds as they are (printable ASCII but '"' and '\\').
var isSpace, isPlain = func() (space, plain [256]bool) {
	for _, c := range " \t\n\r" {
		space[c] = true
	}
	for c := 0x20; c < utf8.RuneSelf; c++ {
		plain[c] = c != '"' && c != '\\'
	}
	return space, plain
}()

// expect skips whitespace and consumes c, declining when c is not next.
func (d *FastDecoder) expect(c byte) bool {
	d.skipSpace()
	if !d.ok || d.pos >= len(d.data) || d.data[d.pos] != c {
		d.decline()
		return false
	}
	d.pos++
	return true
}

// next skips whitespace and consumes one of the delimiters more or end,
// reporting whether it was more; anything else declines.
func (d *FastDecoder) next(more, end byte) bool {
	d.skipSpace()
	if d.ok && d.pos < len(d.data) {
		switch d.data[d.pos] {
		case more:
			d.pos++
			return true
		case end:
			d.pos++
			return false
		}
	}
	d.decline()
	return false
}

// Object decodes one object whose keys are drawn from keys (at most 64).
// For each member it calls field with the matching entry of keys, the
// decoder positioned at the member's value, which field must decode. An
// unknown or repeated key declines.
func (d *FastDecoder) Object(keys []string, field func(key string)) {
	if d.tree {
		d.treeObject(keys, field)
		return
	}
	if !d.expect('{') {
		return
	}
	d.skipSpace()
	if d.pos < len(d.data) && d.data[d.pos] == '}' {
		d.pos++
		return
	}
	var seen uint64
	for d.ok {
		k := d.key(keys)
		if k < 0 || seen&(1<<k) != 0 || !d.expect(':') {
			d.decline()
			return
		}
		seen |= 1 << k
		d.skipSpace()
		field(keys[k])
		if !d.next(',', '}') {
			return
		}
	}
}

// treeObject is Object in a tree walk.
func (d *FastDecoder) treeObject(keys []string, field func(key string)) {
	o, ok := d.cur.(Object)
	if !ok {
		d.decline()
		return
	}
	var seen uint64
	for i := 0; d.ok && i < o.Len(); i++ {
		key, v := o.Member(i)
		k := slices.Index(keys, key)
		if k < 0 || seen&(1<<k) != 0 {
			d.decline()
			return
		}
		seen |= 1 << k
		d.cur = v
		field(keys[k])
	}
}

// key reads an object key and returns its index in keys, or -1.
func (d *FastDecoder) key(keys []string) int {
	d.skipSpace()
	raw := d.str()
	for i, k := range keys {
		if string(raw) == k {
			return i
		}
	}
	return -1
}

// Array decodes one array, calling elem once per element with the decoder
// positioned at it; elem must decode the element.
func (d *FastDecoder) Array(elem func()) {
	if d.tree {
		a, ok := d.cur.(Array)
		if !ok {
			d.decline()
			return
		}
		for i := 0; d.ok && i < a.Len(); i++ {
			d.cur = a.Elem(i)
			elem()
		}
		return
	}
	if !d.expect('[') {
		return
	}
	d.skipSpace()
	if d.pos < len(d.data) && d.data[d.pos] == ']' {
		d.pos++
		return
	}
	for d.ok {
		elem()
		if !d.next(',', ']') {
			return
		}
	}
}

// str reads a string without control bytes, in valid UTF-8, and returns
// its contents: in place when it holds no escape, else as an unescaped
// copy.
func (d *FastDecoder) str() []byte {
	data := d.data
	if !d.ok || d.pos >= len(data) || data[d.pos] != '"' {
		d.decline()
		return nil
	}
	start := d.pos + 1
	ascii := true
	for i := start; i < len(data); i++ {
		if isPlain[data[i]] {
			continue
		}
		switch c := data[i]; {
		case c == '"':
			raw := data[start:i]
			if !ascii && !utf8.Valid(raw) {
				d.decline()
				return nil
			}
			d.pos = i + 1
			return raw
		case c == '\\':
			return d.unescape(start, i)
		case c >= utf8.RuneSelf:
			ascii = false
		default:
			d.decline()
			return nil
		}
	}
	d.decline()
	return nil
}

// unescape finishes a string that opened at start and holds its first
// escape at i. It copies the string, decoding each escape as encoding/json
// does: an escaped surrogate pair is one rune, and any other escaped
// surrogate becomes U+FFFD.
func (d *FastDecoder) unescape(start, i int) []byte {
	data := d.data
	out := append(make([]byte, 0, 2*(i-start)+16), data[start:i]...)
	for i < len(data) {
		c := data[i]
		switch {
		case c == '"':
			// Escapes append whole runes, so the copy is valid UTF-8
			// exactly when the unescaped runs between them are.
			if !utf8.Valid(out) {
				d.decline()
				return nil
			}
			d.pos = i + 1
			return out
		case c == '\\' && i+1 < len(data):
			if e := unescaped[data[i+1]]; e != 0 {
				out = append(out, e)
				i += 2
				continue
			}
			r := hex4(data, i)
			if r < 0 {
				d.decline()
				return nil
			}
			i += 6
			if utf16.IsSurrogate(r) {
				if pair := utf16.DecodeRune(r, hex4(data, i)); pair != utf8.RuneError {
					r = pair
					i += 6
				}
			}
			// AppendRune writes a lone surrogate as U+FFFD.
			out = utf8.AppendRune(out, r)
		case c >= 0x20 && c != '\\':
			// Copy the whole run up to the next quote, escape or
			// control byte at once.
			j := i + 1
			for j < len(data) && (isPlain[data[j]] || data[j] >= utf8.RuneSelf) {
				j++
			}
			out = append(out, data[i:j]...)
			i = j
		default:
			d.decline()
			return nil
		}
	}
	d.decline()
	return nil
}

// unescaped maps the byte after a backslash to the byte its escape
// stands for; 0 marks \u and the bytes JSON does not allow there.
var unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hex4 decodes the \uXXXX escape at data[i:], or returns -1 when there
// is none.
func hex4(data []byte, i int) rune {
	if i+6 > len(data) || data[i] != '\\' || data[i+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range data[i+2 : i+6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// maxSkipDepth bounds the nesting Skip follows. A wire scenario nests
// three deep; anything deeper is left to encoding/json and its own bound.
const maxSkipDepth = 32

// Skip passes over one object, array, string or number, checking it as
// the decoding methods check what they decode (strings in valid UTF-8
// without control bytes, numbers in JSON's grammar) but taking any key,
// repeated or not. true, false, null and nesting past maxSkipDepth
// decline.
func (d *FastDecoder) Skip() { d.skip(0) }

func (d *FastDecoder) skip(depth int) {
	d.skipSpace()
	if !d.ok || d.pos >= len(d.data) || depth > maxSkipDepth {
		d.decline()
		return
	}
	switch d.data[d.pos] {
	case '{':
		d.pos++
		d.skipSpace()
		if d.pos < len(d.data) && d.data[d.pos] == '}' {
			d.pos++
			return
		}
		for d.ok {
			d.skipSpace()
			d.str()
			if !d.expect(':') {
				return
			}
			d.skip(depth + 1)
			if !d.next(',', '}') {
				return
			}
		}
	case '[':
		d.Array(func() { d.skip(depth + 1) })
	case '"':
		d.str()
	default:
		d.number()
	}
}

// String decodes one string value.
func (d *FastDecoder) String() string {
	if d.tree {
		s, ok := d.cur.(string)
		if !ok || !utf8.ValidString(s) {
			d.decline()
		}
		return s
	}
	d.skipSpace()
	return string(d.str())
}

// number reads one number in JSON's grammar (RFC 8259 §6).
func (d *FastDecoder) number() []byte {
	d.skipSpace()
	if !d.ok {
		return nil
	}
	b, i := d.data, d.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		d.decline()
		return nil
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			d.decline()
			return nil
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			d.decline()
			return nil
		}
		i = j
	}
	num := b[d.pos:i]
	d.pos = i
	return num
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// treeNumber is the tree walk's number: finite, and for an int field
// integral with |f| ≤ 2⁵³.
func (d *FastDecoder) treeNumber(isInt bool) float64 {
	f, ok := d.cur.(float64)
	if !ok || math.IsNaN(f) || math.IsInf(f, 0) || isInt && (f != math.Trunc(f) || math.Abs(f) > 1<<53) {
		d.decline()
		return 0
	}
	return f
}

// Float decodes one number as encoding/json does for a float64 field.
func (d *FastDecoder) Float() float64 {
	if d.tree {
		return d.treeNumber(false)
	}
	num := d.number()
	if !d.ok {
		return 0
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		d.decline()
		return 0
	}
	return f
}

// Int decodes one number as encoding/json does for an int field.
func (d *FastDecoder) Int() int {
	if d.tree {
		return int(d.treeNumber(true))
	}
	num := d.number()
	if !d.ok {
		return 0
	}
	n, err := strconv.Atoi(string(num))
	if err != nil {
		d.decline()
		return 0
	}
	return n
}

// Spec decodes one wire-form scenario object, normalizing its version as
// Unmarshal does. The error is the version's; decoding failures decline.
func (d *FastDecoder) Spec() (*Spec, error) {
	s := new(Spec)
	d.spec(s)
	if !d.ok {
		return nil, nil
	}
	if err := s.checkVersion(); err != nil {
		return nil, err
	}
	return s, nil
}

var (
	specKeys      = []string{"version", "name", "logic", "dram", "storage", "extra_ics", "usage", "transport", "end_of_life", "lifetime_years"}
	logicKeys     = []string{"name", "area_mm2", "node", "count", "fab"}
	fabKeys       = []string{"carbon_intensity", "abatement", "yield"}
	partKeys      = []string{"name", "technology", "capacity_gb"}
	usageKeys     = []string{"power_w", "app_hours", "intensity_g_per_kwh", "pue", "battery_efficiency"}
	transportKeys = []string{"name", "mass_kg", "distance_km", "mode"}
	endOfLifeKeys = []string{"processing_kg", "recycling_credit_kg"}
)

// spec decodes a scenario object into s without normalizing its version.
// Each case mirrors a json tag in scenario.go.
func (d *FastDecoder) spec(s *Spec) {
	d.Object(specKeys, func(key string) {
		switch key {
		case "version":
			s.Version = d.Int()
		case "name":
			s.Name = d.String()
		case "logic":
			s.Logic = slice(d, d.logic)
		case "dram":
			s.DRAM = slice(d, func(p *DRAMSpec) { d.part(&p.Name, &p.Technology, &p.CapacityGB) })
		case "storage":
			s.Storage = slice(d, func(p *StorageSpec) { d.part(&p.Name, &p.Technology, &p.CapacityGB) })
		case "extra_ics":
			s.ExtraICs = d.Int()
		case "usage":
			d.usage(&s.Usage)
		case "transport":
			s.Transport = slice(d, d.transport)
		case "end_of_life":
			e := new(EndOfLifeSpec)
			d.Object(endOfLifeKeys, func(key string) {
				switch key {
				case "processing_kg":
					e.ProcessingKg = d.Float()
				case "recycling_credit_kg":
					e.RecyclingCreditKg = d.Float()
				}
			})
			s.EndOfLife = e
		case "lifetime_years":
			s.LifetimeYears = d.Float()
		}
	})
}

// slice decodes an array into a slice. An empty array gives an empty,
// non-nil slice, as encoding/json leaves it.
func slice[T any](d *FastDecoder, elem func(*T)) []T {
	items := []T{}
	d.Array(func() {
		items = append(items, *new(T))
		elem(&items[len(items)-1])
	})
	return items
}

func (d *FastDecoder) logic(l *LogicSpec) {
	d.Object(logicKeys, func(key string) {
		switch key {
		case "name":
			l.Name = d.String()
		case "area_mm2":
			l.AreaMM2 = d.Float()
		case "node":
			l.Node = d.String()
		case "count":
			l.Count = d.Int()
		case "fab":
			f := new(FabSpec)
			d.Object(fabKeys, func(key string) {
				switch key {
				case "carbon_intensity":
					f.CarbonIntensity = d.Float()
				case "abatement":
					f.Abatement = d.Float()
				case "yield":
					f.Yield = d.Float()
				}
			})
			l.Fab = f
		}
	})
}

// part decodes a DRAM module or storage drive; the two share one layout.
func (d *FastDecoder) part(name, technology *string, capacityGB *float64) {
	d.Object(partKeys, func(key string) {
		switch key {
		case "name":
			*name = d.String()
		case "technology":
			*technology = d.String()
		case "capacity_gb":
			*capacityGB = d.Float()
		}
	})
}

func (d *FastDecoder) usage(u *UsageSpec) {
	d.Object(usageKeys, func(key string) {
		switch key {
		case "power_w":
			u.PowerW = d.Float()
		case "app_hours":
			u.AppHours = d.Float()
		case "intensity_g_per_kwh":
			u.IntensityGPerKWh = d.Float()
		case "pue":
			u.PUE = d.Float()
		case "battery_efficiency":
			u.BatteryEfficiency = d.Float()
		}
	})
}

func (d *FastDecoder) transport(t *TransportSpec) {
	d.Object(transportKeys, func(key string) {
		switch key {
		case "name":
			t.Name = d.String()
		case "mass_kg":
			t.MassKg = d.Float()
		case "distance_km":
			t.DistanceKm = d.Float()
		case "mode":
			t.Mode = d.String()
		}
	})
}

// fastBatch is ParseRequest's fast path for a batch array: every element
// decoded in one pass, versions not yet normalized.
func fastBatch(data []byte) ([]*Spec, bool) {
	d := NewFastDecoder(data)
	var specs []*Spec
	d.Array(func() {
		s := new(Spec)
		d.spec(s)
		specs = append(specs, s)
	})
	return specs, d.End()
}
