package script

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"

	"act/internal/scenario"
)

// SpecFromValue converts v as footprint() converts item 0 of a list: the
// wire decoder's walk of the map, and the JSON oracle on a decline.
// SpecFromJSON is the oracle alone.
func SpecFromValue(v Value) (*scenario.Spec, error) {
	return specFromValue(Pos{Line: 1, Col: 1}, 0, v, "need a scenario map")
}

func SpecFromJSON(m *Map) (*scenario.Spec, error) { return specFromJSON(Pos{Line: 1, Col: 1}, 0, m) }

// HostScenarioJSON renders a JSON document the way the host hands a
// script map to scenario.Unmarshal: decoded into script values, keys in
// document order, then written compact by appendValueJSON.
func HostScenarioJSON(doc []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	v, err := decodeOrdered(dec, 0)
	if err != nil {
		return nil, err
	}
	return appendValueJSON(nil, v, -1)
}

// LexBytes lexes src with the tuned lexer and with the oracle, returning
// the bytes each allocated along the way and whether they agreed.
func LexBytes(src string) (got, oracle uint64, agree bool) {
	measure := func(f func(string) ([]token, error)) ([]token, error, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		toks, err := f(src)
		runtime.ReadMemStats(&after)
		return toks, err, after.TotalAlloc - before.TotalAlloc
	}
	gt, gerr, got := measure(lex)
	wt, werr, oracle := measure(oracleLex)
	agree = (gerr == nil) == (werr == nil) && len(gt) == len(wt)
	for i := 0; agree && i < len(gt); i++ {
		agree = gt[i] == wt[i]
	}
	return got, oracle, agree
}

// DecodeDoc parses a result document with encoding/json's token stream,
// keeping key order. It is the oracle footprint()'s result values are
// held to, both those built from colbatch's columns and those decodeDoc
// evaluates from the document of an item the scalar oracle answered.
func DecodeDoc(doc []byte) (Value, error) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	return decodeOrdered(dec, 0)
}

// decodeOrdered rebuilds one JSON value from a decoder token stream,
// keeping object key order.
func decodeOrdered(dec *json.Decoder, depth int) (Value, error) {
	if depth > maxValueDepth {
		return nil, errTooDeep
	}
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	switch t := tok.(type) {
	case json.Delim:
		switch t {
		case '{':
			m := NewMap()
			for dec.More() {
				keyTok, err := dec.Token()
				if err != nil {
					return nil, err
				}
				key, ok := keyTok.(string)
				if !ok {
					return nil, fmt.Errorf("object key is %T", keyTok)
				}
				v, err := decodeOrdered(dec, depth+1)
				if err != nil {
					return nil, err
				}
				m.Set(key, v)
			}
			if _, err := dec.Token(); err != nil { // consume '}'
				return nil, err
			}
			return m, nil
		case '[':
			l := &List{}
			for dec.More() {
				v, err := decodeOrdered(dec, depth+1)
				if err != nil {
					return nil, err
				}
				l.Elems = append(l.Elems, v)
			}
			if _, err := dec.Token(); err != nil { // consume ']'
				return nil, err
			}
			return l, nil
		default:
			return nil, fmt.Errorf("unexpected delimiter %v", t)
		}
	case json.Number:
		f, err := t.Float64()
		if err != nil {
			return nil, err
		}
		return f, nil
	case string:
		return t, nil
	case bool:
		return t, nil
	case nil:
		return nil, nil
	default:
		return nil, fmt.Errorf("unexpected token %T", tok)
	}
}
