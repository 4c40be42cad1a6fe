package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"act/internal/scenario"
)

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkFastDevice is the differential for ParseDevice's one-pass path:
// whenever fastDevice answers, encoding/json must decode the same device
// fields (the scenario's raw bytes included) and the same scenario, and
// ParseDevice must answer exactly as DeviceSpec.Device does on the
// oracle's decode.
func checkFastDevice(t *testing.T, data []byte) {
	t.Helper()
	ds, spec, specErr, ok := fastDevice(data)
	if !ok {
		return
	}
	var want DeviceSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		t.Fatalf("fast path accepted a line the oracle rejects: %v\ninput: %q", err, data)
	}
	if !reflect.DeepEqual(ds, want) {
		t.Fatalf("device fields differ\nfast:   %+v\noracle: %+v\ninput: %q", ds, want, data)
	}
	if len(want.Scenario) == 0 {
		if spec != nil || specErr != nil {
			t.Fatalf("fast path decoded a scenario the line does not carry: %q", data)
		}
	} else {
		var wantSpec scenario.Spec
		sdec := json.NewDecoder(bytes.NewReader(want.Scenario))
		sdec.DisallowUnknownFields()
		if err := sdec.Decode(&wantSpec); err != nil {
			t.Fatalf("fast path accepted a scenario the oracle rejects: %v\ninput: %q", err, data)
		}
		_, unmarshalErr := scenario.Unmarshal(want.Scenario)
		if errText(specErr) != errText(unmarshalErr) {
			t.Fatalf("scenario error %q, oracle %q\ninput: %q", errText(specErr), errText(unmarshalErr), data)
		}
		if specErr == nil {
			if wantSpec.Version == 0 {
				wantSpec.Version = scenario.Version
			}
			if !reflect.DeepEqual(spec, &wantSpec) {
				t.Fatalf("scenario differs\nfast:   %+v\noracle: %+v\ninput: %q", spec, &wantSpec, data)
			}
		}
	}
	got, gotErr := ParseDevice(data)
	wantDev, wantErr := want.Device()
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("ParseDevice error %q, oracle %q\ninput: %q", errText(gotErr), errText(wantErr), data)
	}
	if gotErr == nil && (got.ID != wantDev.ID || got.Region != wantDev.Region ||
		!got.Deployed.Equal(wantDev.Deployed) || !got.Retired.Equal(wantDev.Retired) ||
		got.Utilization != wantDev.Utilization || !reflect.DeepEqual(got.Spec, wantDev.Spec)) {
		t.Fatalf("ParseDevice %+v, oracle %+v\ninput: %q", got, wantDev, data)
	}
}

// deviceSeed is a device line and whether it is in the fast subset.
type deviceSeed struct {
	line string
	fast bool
}

// deviceSeeds are device lines in the forms writers produce, beside lines
// just outside the fast subset.
func deviceSeeds(tb testing.TB) []deviceSeed {
	spec, err := scenario.Marshal(testSpec(1))
	if err != nil {
		tb.Fatal(err)
	}
	compact, err := json.Marshal(testSpec(2))
	if err != nil {
		tb.Fatal(err)
	}
	return []deviceSeed{
		{fmt.Sprintf(`{"id":"a","region":"united-states","deployed":"2024-01-01","scenario":%s}`, spec), true},
		{fmt.Sprintf(`{"id":"b","region":"europe","deployed":"2024-01-01T00:00:00+02:00","retired":"2026-06-01","utilization":0.25,"scenario":%s}`, compact), true},
		{fmt.Sprintf(` { "scenario" : %s , "id" : "c" , "region":"india","deployed":"2024-01-01","utilization":1e-1 } `+"\n", compact), true},
		{`{"id":"d","region":"world","deployed":"2024-01-01","scenario":{"version":3}}`, true},
		{`{"id":"","region":"world","deployed":"2024-01-01","scenario":{}}`, true},
		{`{"id":"e","region":"world","deployed":"2024-01-01"}`, true},
		{`{"id":"f","region":"mars","deployed":"2024-13-01","utilization":7,"scenario":{}}`, true},
		{`{"id":"dev-\u00e9","region":"world","deployed":"2024-01-01","scenario":{"name":"R\u0026D \ud83d\ude00"}}`, true},
		{fmt.Sprintf(`{"id":"g","ID":"h","region":"world","deployed":"2024-01-01","scenario":%s}`, compact), false},
		{fmt.Sprintf(`{"id":"g","id":"h","region":"world","deployed":"2024-01-01","scenario":%s}`, compact), false},
		{`{"id":"i","region":"world","deployed":"2024-01-01","scenario":null}`, false},
		{fmt.Sprintf(`{"id":"j","region":"world","deployed":"2024-01-01","utilization":null,"scenario":%s}`, compact), false},
		{fmt.Sprintf(`{"id":"k","region":"world","deployed":"2024-01-01","scenario":%s} trailing`, compact), false},
		{`{"id":"l","region":"world","deployed":"2024-01-01","scenario":"x"}`, false},
		{`{"id":"m","region":"world","deployed":"2024-01-01","scenario":{"name":"x","nmae":1}}`, false},
	}
}

// FuzzParseDevice checks the ParseDevice differential on arbitrary lines.
func FuzzParseDevice(f *testing.F) {
	for _, s := range deviceSeeds(f) {
		f.Add([]byte(s.line))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFastDevice(t, data)
	})
}

// TestParseDeviceFastPath: the lines writers produce are decoded in one
// pass, and every seed — inside the subset or not — agrees with the
// oracle.
func TestParseDeviceFastPath(t *testing.T) {
	for _, s := range deviceSeeds(t) {
		if _, _, _, ok := fastDevice([]byte(s.line)); ok != s.fast {
			t.Errorf("fast path answered %v, want %v: %s", ok, s.fast, s.line)
		}
		checkFastDevice(t, []byte(s.line))
	}
	for _, line := range benchLines(t, 64, 8) {
		if _, _, _, ok := fastDevice(line); !ok {
			t.Fatalf("fast path declined %s", line)
		}
		checkFastDevice(t, line)
	}
}
