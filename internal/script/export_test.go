package script

import (
	"bytes"
	"encoding/json"
)

// HostScenarioJSON renders a JSON document the way the host hands a
// script map to scenario.Unmarshal: decoded into script values, keys in
// document order, then written by appendValueCompact.
func HostScenarioJSON(doc []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	v, err := decodeOrdered(dec, 0)
	if err != nil {
		return nil, err
	}
	return appendValueCompact(nil, v, 0)
}
