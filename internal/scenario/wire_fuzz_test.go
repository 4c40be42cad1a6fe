package scenario

import (
	"encoding/json"
	"testing"
)

// fuzzSeeds are the shared corpus for the wire-format fuzzers: the two
// documented sample scenarios, the generated Example, and a handful of
// hostile shapes (wrong top-level types, absurd numerics, truncations).
func fuzzSeeds(f *testing.F) {
	seeds := []string{
		sample,
		lifecycleSample,
		`{}`,
		`{"version":1,"name":"x"}`,
		`{"version":2,"name":"x"}`,
		`{"name":"x","logic":[{"name":"l","area_mm2":1e308,"node":"7nm"}]}`,
		`{"name":"x","dram":[{"name":"d","technology":"lpddr4","capacity_gb":1e-320}]}`,
		`{"name":"\u0000","usage":{"power_w":1,"app_hours":1}}`,
		`[{"name":"x"}]`,
		`null`,
		`{"name":"x",`,
		`{"name":"x"} trailing junk`,
		`{"name":"x","NAME":"y"}`,
		`{"name":"x","logic":[{"name":"a","fab":{"yield":0.5}}],"logic":[{"name":"m"}]}`,
		`{"name":"a\"b","logic":[],"end_of_life":{}}`,
		`{"n\u0061me":"R\u0026D \ud83d\ude00 \ud83d\u0041 \udc00","usage":{"power_w":1,"app_hours":1}}`,
		`{"name":"x","extra_ics":-0,"lifetime_years":1E+2}`,
	}
	if data, err := Marshal(Example()); err == nil {
		seeds = append(seeds, string(data))
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
}

// FuzzScenarioUnmarshal asserts the wire decoder never panics on arbitrary
// bytes, that its fast path answers exactly as encoding/json whenever it
// answers at all, and that anything it accepts survives a
// Marshal/Unmarshal round trip without changing identity — the property
// the footprint cache and the golden wire tests both lean on.
func FuzzScenarioUnmarshal(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFastUnmarshal(t, data)
		spec, err := Unmarshal(data)
		if err != nil {
			return
		}
		out, err := Marshal(spec)
		if err != nil {
			t.Fatalf("accepted scenario failed to marshal: %v", err)
		}
		again, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("marshal output failed to re-parse: %v\n%s", err, out)
		}
		if spec.CanonicalKey() != again.CanonicalKey() {
			t.Errorf("canonical key changed across round trip:\n before %q\n after  %q",
				spec.CanonicalKey(), again.CanonicalKey())
		}
	})
}

// FuzzCanonicalKey asserts the cache key is deterministic, non-empty for
// every parseable scenario, and consistent with the content hash: two
// computations of either never disagree with themselves.
func FuzzCanonicalKey(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Unmarshal(data)
		if err != nil {
			return
		}
		k1, k2 := spec.CanonicalKey(), spec.CanonicalKey()
		if k1 != k2 {
			t.Fatalf("CanonicalKey not deterministic: %q vs %q", k1, k2)
		}
		if k1 == "" {
			t.Fatal("CanonicalKey empty for a parseable scenario")
		}
		if spec.HashKey() != spec.HashKey() {
			t.Fatal("HashKey not deterministic")
		}
		// The key must be derived from content, not pointer identity: an
		// independently decoded copy of the same bytes shares the key.
		var clone *Spec
		if out, err := Marshal(spec); err == nil {
			if clone, err = Unmarshal(out); err == nil && clone.CanonicalKey() != k1 {
				t.Errorf("independently decoded copy has a different key")
			}
		}
		_ = clone
	})
}

// TestFuzzSeedsParse keeps the seed corpus honest: the well-formed seeds
// must keep parsing as the format evolves.
func TestFuzzSeedsParse(t *testing.T) {
	for _, src := range []string{sample, lifecycleSample} {
		if _, err := Unmarshal([]byte(src)); err != nil {
			t.Errorf("seed scenario no longer parses: %v", err)
		}
	}
	data, err := json.Marshal(Example())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(data); err != nil {
		t.Errorf("Example() no longer parses: %v", err)
	}
}
