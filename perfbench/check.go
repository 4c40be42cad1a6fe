package main

// Answer checks, run outside every timed window. Footprint documents must
// match both the columnar engine and the scalar oracle; sweep and script
// answers must match the same computation done in process; fleet
// summaries must match a fleet.Registry fed the same NDJSON in the same
// order; so must the summaries of the 3-member cluster the traced run
// replays, which makes them byte-identical to a single node's.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"act/internal/dse"
	"act/internal/fleet"
	"act/internal/metrics"
	"act/internal/report"
)

func paretoFrontier(cs []metrics.Candidate) ([]metrics.Candidate, error) {
	return dse.ParetoFrontier(cs, []dse.Objective{dse.Embodied, dse.Energy, dse.Delay})
}

// checkSamples is how many working-set singles the design check replays:
// the hottest ones (cache hits) and an even spread of the rest.
const checkSamples = 256

// checkIndices are the working-set singles the design check replays.
func checkIndices(d *designInputs) []int32 {
	idx := append([]int32(nil), d.hot[:checkSamples]...)
	for i := 0; i < checkSamples; i++ {
		idx = append(idx, d.hot[checkSamples+i*(workingSet-checkSamples)/checkSamples])
	}
	return idx
}

func checkDesign(hc *http.Client, base string, d *designInputs) error {
	specs := d.singleSpecs()
	for _, i := range checkIndices(d) {
		want, err := colbatchDocs(specs[i : i+1])
		if err != nil {
			return fmt.Errorf("colbatch oracle, single %d: %w", i, err)
		}
		res, err := specs[i].Result()
		if err != nil {
			return fmt.Errorf("scalar oracle, single %d: %w", i, err)
		}
		var scalar bytes.Buffer
		if err := report.Encode(&scalar, res); err != nil {
			return err
		}
		if !bytes.Equal(scalar.Bytes(), want[0]) {
			return fmt.Errorf("single %d: colbatch and scalar oracles disagree", i)
		}
		got, err := post(hc, base+"/v1/footprint", "application/json", d.singles[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want[0]) {
			return fmt.Errorf("single %d: answer differs from the oracle:\n got: %.200s\nwant: %.200s", i, got, want[0])
		}
	}
	for b, specs := range d.batchSpecs() {
		docs, err := colbatchDocs(specs)
		if err != nil {
			return fmt.Errorf("colbatch oracle, batch %d: %w", b, err)
		}
		got, err := post(hc, base+"/v1/footprint", "application/json", d.batches[b])
		if err != nil {
			return err
		}
		if !bytes.Equal(got, joinDocs(docs)) {
			return fmt.Errorf("batch %d: answer differs from the colbatch oracle", b)
		}
	}
	for k, body := range d.sweeps {
		got, err := post(hc, base+"/v1/sweep", "application/json", body)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, d.sweepDocs[k]) {
			return fmt.Errorf("sweep %d: answer differs from the in-process ranking:\n got: %.200s\nwant: %.200s", k, got, d.sweepDocs[k])
		}
	}
	for k, body := range d.scripts {
		got, err := post(hc, base+"/v1/script", "application/json", body)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, d.scriptDocs[k]) {
			return fmt.Errorf("script %d: answer differs from the in-process interpreter:\n got: %.200s\nwant: %.200s", k, got, d.scriptDocs[k])
		}
	}
	return nil
}

// fleetOracle is a registry fed exactly what the server was fed. Update
// lines are parsed once and upserted in stream order on every replay —
// what IngestNDJSON does per line — so replaying a long window stays
// cheap.
type fleetOracle struct {
	reg     *fleet.Registry
	applied int              // update bodies applied, in cyclic order
	parsed  [][]fleet.Device // update bodies, parsed
}

func newFleetOracle(f *fleetInputs) (*fleetOracle, error) {
	o := &fleetOracle{reg: fleet.New(fleet.Config{})}
	for _, chunk := range f.bulk {
		if _, err := o.reg.IngestNDJSON(bytes.NewReader(chunk), 0); err != nil {
			return nil, fmt.Errorf("oracle bulk ingest: %w", err)
		}
	}
	return o, nil
}

// advance applies update bodies in cyclic order until n have been applied
// in total.
func (o *fleetOracle) advance(f *fleetInputs, n int) error {
	for o.applied < n {
		if err := o.apply(f, o.applied%len(f.updates)); err != nil {
			return err
		}
	}
	return nil
}

// apply upserts update body k's devices in stream order.
func (o *fleetOracle) apply(f *fleetInputs, k int) error {
	if o.parsed == nil {
		for k, u := range f.updates {
			var devs []fleet.Device
			for _, line := range bytes.SplitAfter(u, []byte("\n")) {
				if len(bytes.TrimSpace(line)) == 0 {
					continue
				}
				dev, err := fleet.ParseDevice(line)
				if err != nil {
					return fmt.Errorf("oracle: update body %d: %w", k, err)
				}
				devs = append(devs, *dev)
			}
			o.parsed = append(o.parsed, devs)
		}
	}
	for _, dev := range o.parsed[k] {
		if _, err := o.reg.Upsert(dev); err != nil {
			return fmt.Errorf("oracle update %d (body %d): %w", o.applied, k, err)
		}
	}
	o.applied++
	return nil
}

func (o *fleetOracle) want(q fleet.Query) ([]byte, error) {
	doc, err := o.reg.Query(q)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = report.Encode(&buf, doc)
	return buf.Bytes(), err
}

// checkFleet compares the front member's summaries with the oracle's.
func checkFleet(hc *http.Client, base string, o *fleetOracle) error {
	for _, c := range []struct {
		path string
		q    fleet.Query
	}{
		{summaryPath, fleet.Query{GroupBy: "region"}},
		{topPath, fleet.Query{TopK: topK}},
		{"/v1/fleet/summary", fleet.Query{}},
	} {
		want, err := o.want(c.q)
		if err != nil {
			return err
		}
		got, err := get(hc, base+c.path)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s after %d updates differs from a registry fed the same NDJSON:\n got: %.300s\nwant: %.300s",
				c.path, o.applied, got, want)
		}
	}
	var doc struct {
		Devices int `json:"devices"`
	}
	got, err := get(hc, base+"/v1/fleet/summary")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(got, &doc); err != nil || doc.Devices != fleetDevices {
		return fmt.Errorf("fleet holds %d devices, want %d (%v)", doc.Devices, fleetDevices, err)
	}
	return nil
}
