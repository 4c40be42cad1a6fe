package script

import (
	"bytes"
	"encoding/json"
	"runtime"
)

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

// DecodeDoc is the result-document parser footprint() used for every item
// before results were built from colbatch's columns; it still answers the
// items the scalar oracle evaluates.
func DecodeDoc(doc []byte) (Value, error) { return decodeDoc(doc) }
