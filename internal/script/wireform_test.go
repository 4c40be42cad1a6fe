package script_test

import (
	"encoding/json"
	"testing"

	"act/internal/conform"
	"act/internal/scenario"
	"act/internal/script"
)

// TestHostFormFastPath: the compact form in which footprint(map) hands a
// scenario to scenario.Unmarshal is inside the fast decoder's subset for
// every generated corpus scenario, and decodes to the scenario written.
func TestHostFormFastPath(t *testing.T) {
	for i, spec := range conform.GenerateCorpus(1001, 1000) {
		doc, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		data, err := script.HostScenarioJSON(doc)
		if err != nil {
			t.Fatal(err)
		}
		d := scenario.NewFastDecoder(data)
		got, err := d.Spec()
		if !d.End() || err != nil {
			t.Fatalf("scenario %d: fast path declined the host form (err %v)\n%s", i, err, data)
		}
		want, err := scenario.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := scenario.Marshal(got); err != nil || string(again) != string(want) {
			t.Fatalf("scenario %d: host form does not decode to the scenario written (err %v)", i, err)
		}
	}
}
