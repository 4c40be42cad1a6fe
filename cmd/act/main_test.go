package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"act/internal/scenario"
)

func TestRunExample(t *testing.T) {
	var out bytes.Buffer
	if err := run("", "ascii", true, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	// The -example output is valid JSON that parses back as a scenario.
	if _, err := scenario.Parse(strings.NewReader(out.String())); err != nil {
		t.Fatalf("example output does not parse: %v", err)
	}
}

func TestRunFromStdin(t *testing.T) {
	spec, err := json.Marshal(scenario.Example())
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run("", "ascii", false, bytes.NewReader(spec), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Carbon footprint: mobile-phone", "operational (OPCF)", "Embodied breakdown", "application SoC"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunFromFileAllFormats(t *testing.T) {
	spec, err := json.Marshal(scenario.Example())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, spec, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"ascii", "csv", "md"} {
		var out bytes.Buffer
		if err := run(path, format, false, strings.NewReader(""), &out); err != nil {
			t.Errorf("format %s: %v", format, err)
		}
		if out.Len() == 0 {
			t.Errorf("format %s: empty output", format)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run("/does/not/exist.json", "ascii", false, strings.NewReader(""), &out); err == nil {
		t.Error("missing file: expected error")
	}
	if err := run("", "ascii", false, strings.NewReader("{not json"), &out); err == nil {
		t.Error("bad JSON: expected error")
	}
	spec, _ := json.Marshal(scenario.Example())
	if err := run("", "pdf", false, bytes.NewReader(spec), &out); err == nil {
		t.Error("unknown format: expected error")
	}
	// Bytes after the scenario are refused by act and act batch alike,
	// with the text actd answers.
	trailing := append(spec, " trailing junk"...)
	const want = "scenario: invalid character 't' after top-level value"
	if err := run("", "json", false, bytes.NewReader(trailing), &out); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("act, trailing data: error %v, want %q", err, want)
	}
	if err := runBatch(nil, bytes.NewReader(trailing), &out); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("act batch, trailing data: error %v, want %q", err, want)
	}
}
