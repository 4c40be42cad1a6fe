// In-package unit tests for the pieces the integration harness reaches
// only through their happy paths: member error translation, field
// remapping, URL normalization, body compaction, and the constructor's
// refusals.

package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"act/internal/acterr"
	"act/internal/fleet"
)

func TestSplitDeviceField(t *testing.T) {
	cases := []struct {
		in   string
		idx  int
		rest string
		ok   bool
	}{
		{"device[3].deployed", 3, ".deployed", true},
		{"device[0]", 0, "", true},
		{"device[12].scenario.logic[0].node", 12, ".scenario.logic[0].node", true},
		{"utilization", 0, "", false},
		{"device[x]", 0, "", false},
		{"device[3", 0, "", false},
	}
	for _, c := range cases {
		idx, rest, ok := splitDeviceField(c.in)
		if idx != c.idx || rest != c.rest || ok != c.ok {
			t.Errorf("splitDeviceField(%q) = (%d, %q, %v), want (%d, %q, %v)",
				c.in, idx, rest, ok, c.idx, c.rest, c.ok)
		}
	}
}

func TestRegistryError(t *testing.T) {
	// A member's validation refusal becomes the typed error its registry
	// built: the field path, the reason after the field, and the version
	// sentinel behind unsupported_version.
	for _, c := range []struct {
		code    string
		version bool
	}{{"invalid_argument", false}, {"unsupported_version", true}} {
		err := registryError(&MemberError{Status: 400, Code: c.code, Field: "device[2].scenario",
			Message: "fleet: invalid spec field device[2].scenario: bad thing"})
		var inv *acterr.InvalidSpecError
		if !errors.As(err, &inv) || inv.Field != "device[2].scenario" || inv.Message() != "bad thing" {
			t.Fatalf("%s: got %v, want the typed error at device[2].scenario", c.code, err)
		}
		if err.Error() != "fleet: invalid spec field device[2].scenario: bad thing" {
			t.Errorf("%s: message = %q, want the member's", c.code, err)
		}
		if got := errors.Is(err, acterr.ErrUnsupportedVersion); got != c.version {
			t.Errorf("%s: Is(ErrUnsupportedVersion) = %v", c.code, got)
		}
	}

	// Any other refusal stays the member's envelope.
	degraded := &MemberError{Status: 503, Code: "degraded", Message: "fleet store is degraded"}
	if got := registryError(degraded); got != error(degraded) {
		t.Errorf("degraded refusal rewritten to %v", got)
	}
	plain := errors.New("io fault")
	if registryError(plain) != plain {
		t.Error("untyped error was rewritten")
	}
}

func TestRemapIngestError(t *testing.T) {
	if remapIngestError(nil, nil) != nil {
		t.Error("nil error remapped to non-nil")
	}
	plain := errors.New("io fault")
	if remapIngestError(plain, []int{1}) != plain {
		t.Error("untyped error was rewritten")
	}

	local := fmt.Errorf("fleet: %w", &acterr.InvalidSpecError{Field: "device[1].region", Reason: "unknown region"})
	remapped := remapIngestError(local, []int{10, 20, 30})
	var inv *acterr.InvalidSpecError
	if !errors.As(remapped, &inv) {
		t.Fatalf("remapped error lost its type: %v", remapped)
	}
	if inv.Field != "device[20].region" {
		t.Errorf("field = %q, want device[20].region", inv.Field)
	}
	if !acterr.IsInvalid(remapped) {
		t.Error("remapped error is no longer classified invalid")
	}
	if !strings.HasPrefix(remapped.Error(), "fleet: ") {
		t.Errorf("remapped error lost the fleet prefix: %v", remapped)
	}

	// An index outside the sub-batch cannot be remapped; the original
	// error survives rather than panicking or lying.
	oob := fmt.Errorf("fleet: %w", &acterr.InvalidSpecError{Field: "device[7]", Reason: "x"})
	if got := remapIngestError(oob, []int{10}); got != oob {
		t.Errorf("out-of-range index rewrote the error: %v", got)
	}

	idx, ok := ingestErrorIndex(remapped)
	if !ok || idx != 20 {
		t.Errorf("ingestErrorIndex = (%d, %v), want (20, true)", idx, ok)
	}
	if _, ok := ingestErrorIndex(plain); ok {
		t.Error("ingestErrorIndex found an index in an untyped error")
	}
}

func TestNormalizeURL(t *testing.T) {
	good := map[string]string{
		"http://node-a:8080":   "http://node-a:8080",
		"https://node-b/":      "https://node-b",
		"http://c:1234/?x=1#f": "http://c:1234",
	}
	for in, want := range good {
		got, err := normalizeURL(in)
		if err != nil || got != want {
			t.Errorf("normalizeURL(%q) = (%q, %v), want %q", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "node-a:8080", "ftp://x", "http://"} {
		if got, err := normalizeURL(bad); err == nil {
			t.Errorf("normalizeURL(%q) accepted as %q", bad, got)
		}
	}
}

func TestCompactBody(t *testing.T) {
	long := strings.Repeat("x", 300) + "\nline2"
	got := compactBody([]byte(long))
	if len(got) > 260 || strings.Contains(got, "\n") {
		t.Errorf("compactBody left %d bytes with newline=%v", len(got), strings.Contains(got, "\n"))
	}
	if compactBody(nil) != "" {
		t.Error("empty body compacted to non-empty")
	}
}

func TestNewRefusals(t *testing.T) {
	reg := fleet.New(fleet.Config{})
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no registry", Config{Self: "http://a", Peers: []string{"http://a"}}},
		{"no peers", Config{Self: "http://a", Registry: reg}},
		{"bad self", Config{Self: "nope", Peers: []string{"http://a"}, Registry: reg}},
		{"bad peer", Config{Self: "http://a", Peers: []string{"http://a", "://b"}, Registry: reg}},
		{"self not a member", Config{Self: "http://zzz", Peers: []string{"http://a", "http://b"}, Registry: reg}},
		{"duplicate member", Config{Self: "http://a", Peers: []string{"http://a", "http://b/", "http://b"}, Registry: reg}},
	}
	for _, c := range cases {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s: config accepted", c.name)
		}
	}

	c, err := New(Config{Self: "http://a", Peers: []string{"http://b", "http://a"}, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if c.Self() != "http://a" {
		t.Errorf("Self = %q", c.Self())
	}
	if m := c.Members(); len(m) != 2 || m[0] != "http://a" || m[1] != "http://b" {
		t.Errorf("Members = %v (want sorted, self included)", m)
	}
	if c.Registry() != reg {
		t.Error("Registry accessor does not return the configured registry")
	}
	if c.Ring() == nil || c.Ring().Vnodes() != DefaultVnodes {
		t.Error("Ring accessor broken")
	}
}

// TestRecordOwnerTailRecords routes records the framer's skim declines —
// an "ID" key, a duplicated id key, an escaped id after them — where a
// full decode of each record routes it: by the id encoding/json reads, or
// locally when it reads none.
func TestRecordOwnerTailRecords(t *testing.T) {
	c, err := New(Config{Self: "http://a", Peers: []string{"http://a", "http://b", "http://c"},
		Registry: fleet.New(fleet.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	// remote returns the first id after prefix that a peer owns, so a
	// record that lost its id and routed locally would show.
	remote := func(prefix string) string {
		for i := 0; ; i++ {
			if id := fmt.Sprintf("%s-%d", prefix, i); c.OwnerOf(id) != c.Self() {
				return id
			}
		}
	}
	skimmed, upper, dup, escaped := remote("dev-skim"), remote("dev-upper"), remote("dev-dup"), remote("dev-esc")
	stream := strings.Join([]string{
		`{"id":"` + skimmed + `"}`,
		`{"ID":"` + upper + `"}`, // not a device key: the decoder takes it and the rest
		`{"id":"` + skimmed + `","id":"` + dup + `"}`,
		`{"id":"\u0064` + escaped[1:] + `"}`, // "\u0064" is "d"
		`{"region":"world"}`,
	}, "\n")
	want := []struct {
		skimmedID string
		owner     string
	}{
		{skimmed, c.OwnerOf(skimmed)},
		{"", c.OwnerOf(upper)},
		{"", c.OwnerOf(dup)},
		{"", c.OwnerOf(escaped)},
		{"", c.Self()},
	}
	var recs []ingestRecord
	if err := fleet.ReadNDJSON(strings.NewReader(stream), 0, func(_ int, raw json.RawMessage, id string) error {
		recs = append(recs, ingestRecord{raw, id})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("framed %d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if rec.id != want[i].skimmedID {
			t.Errorf("record %d: skimmed id %q, want %q", i, rec.id, want[i].skimmedID)
		}
		if got := c.recordOwner(rec); got != want[i].owner {
			t.Errorf("record %d %s: routed to %s, want %s", i, rec.raw, got, want[i].owner)
		}
	}
}
