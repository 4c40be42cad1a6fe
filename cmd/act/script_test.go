package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"act/internal/scenario"
	"act/internal/script"
	"act/internal/serve"
)

// TestScriptThreeSurfaceIdentity is the cross-surface acceptance check for
// scripting: one committed-style case study program must produce the same
// bytes through all three surfaces — direct library Eval, POST /v1/script,
// and `act script`.
func TestScriptThreeSurfaceIdentity(t *testing.T) {
	specJSON, err := scenario.Marshal(scenario.Example())
	if err != nil {
		t.Fatal(err)
	}
	// A representative study: evaluate the example device at three
	// lifetimes and emit the embodied amortization curve.
	src := `let base = ` + string(specJSON) + `
let rows = []
for years in [2, 4, 6] {
  let s = copy(base)
  s["lifetime_years"] = years
  let r = footprint(s)
  append(rows, {"years": years, "total_g": r["total_g"]})
}
emit("amortization", rows)
rows
`

	// Surface 1: direct library use.
	res, err := script.Eval(context.Background(), src, script.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var lib bytes.Buffer
	if err := res.Encode(&lib); err != nil {
		t.Fatal(err)
	}

	// Surface 2: the service.
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	reqBody, err := json.Marshal(map[string]string{"source": src})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/script", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	svc, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %.300s", resp.StatusCode, svc)
	}

	// Surface 3: the CLI.
	var cli bytes.Buffer
	if err := runScript(nil, strings.NewReader(src), &cli); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(svc, lib.Bytes()) {
		t.Errorf("service bytes differ from library Eval:\n%s\nwant:\n%s", svc, lib.Bytes())
	}
	if !bytes.Equal(cli.Bytes(), lib.Bytes()) {
		t.Errorf("cli bytes differ from library Eval:\n%s\nwant:\n%s", cli.Bytes(), lib.Bytes())
	}
}

// TestScriptBudgetFlags proves the CLI budget flags reach the evaluator.
func TestScriptBudgetFlags(t *testing.T) {
	err := runScript([]string{"-max-steps", "100"},
		strings.NewReader("let n = 0\nfor i in range(100000) { n = n + 1 }\n"), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "steps") {
		t.Fatalf("err = %v, want step-budget error", err)
	}
}

// TestScriptProgramArgument: the one argument is the program path, the
// same program -file and stdin run; an argument beside -file, or a
// second argument, is refused before anything runs.
func TestScriptProgramArgument(t *testing.T) {
	src := "let x = 6 * 7\nemit(\"x\", x)\nx\n"
	prog := filepath.Join(t.TempDir(), "prog.act")
	if err := os.WriteFile(prog, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := runScript(nil, strings.NewReader(src), &want); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(want.String(), "42") {
		t.Fatalf("stdin run answered %s", want.String())
	}
	for _, args := range [][]string{{prog}, {"-file", prog}, {"-max-steps", "1000", prog}} {
		var got bytes.Buffer
		if err := runScript(args, strings.NewReader(""), &got); err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%q answered %s, want %s", args, got.Bytes(), want.Bytes())
		}
	}
	for want, args := range map[string][]string{
		`script: program "` + prog + `" given twice, as -file "` + prog + `" and as an argument`: {"-file", prog, prog},
		`script: want one program path, got 2 arguments: ["` + prog + `" "other.act"]`:           {prog, "other.act"},
	} {
		var out bytes.Buffer
		err := runScript(args, strings.NewReader(src), &out)
		if err == nil || err.Error() != want {
			t.Fatalf("%q: err = %v, want %s", args, err, want)
		}
		if out.Len() != 0 {
			t.Fatalf("%q wrote %s before refusing", args, out.Bytes())
		}
	}
}
