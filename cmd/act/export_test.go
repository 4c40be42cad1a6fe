package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"act/internal/export"
	"act/internal/fleet"
)

// TestExportByteIdentity is the export cross-surface acceptance check:
// `act export` over an NDJSON fleet file must produce the exact bytes the
// push exporter renders for the same fleet at the same timestamp.
func TestExportByteIdentity(t *testing.T) {
	ndjson := fleetNDJSON(t, 60, 5)
	const at = "2026-03-01T12:00:00Z"
	ts, err := time.Parse(time.RFC3339, at)
	if err != nil {
		t.Fatal(err)
	}

	var cli bytes.Buffer
	if err := runExport([]string{"-at", at}, bytes.NewReader(ndjson), &cli); err != nil {
		t.Fatal(err)
	}

	reg := fleet.New(fleet.Config{})
	if _, err := reg.IngestNDJSON(bytes.NewReader(ndjson), 0); err != nil {
		t.Fatal(err)
	}
	want, err := export.Render(reg, ts)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(cli.Bytes(), want) {
		t.Fatalf("act export diverged from the exporter's rendering:\ncli:\n%.400s\nexporter:\n%.400s",
			cli.Bytes(), want)
	}
	if !strings.HasPrefix(cli.String(), "act_fleet_devices 60 ") {
		t.Errorf("unexpected head: %.80s", cli.String())
	}
}

// TestExportBadTimestamp pins the -at parse failure path.
func TestExportBadTimestamp(t *testing.T) {
	var out bytes.Buffer
	err := runExport([]string{"-at", "yesterday"}, strings.NewReader(""), &out)
	if err == nil || !strings.Contains(err.Error(), "parsing -at") {
		t.Fatalf("err = %v, want a -at parse error", err)
	}
}
