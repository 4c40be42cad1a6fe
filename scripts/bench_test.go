// Package scripts holds the repository's shell tools. Its tests run them
// against a stub go command or a scratch git repository, so a change in
// what bench.sh records or refuses, or in what loc.sh counts, fails
// tier-1 without a real benchmark run.
package scripts

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/bench.golden.json")

// stubGo stands in for the go command: `go test` prints the recorded
// transcript, logs its arguments and exits with $STUB_STATUS; `go version`
// and `go list -m` answer as a go1.24 toolchain in module act would.
const stubGo = `#!/bin/sh
case $1 in
version) echo "go version go1.24.0 linux/amd64" ;;
list) echo act ;;
test)
    shift
    echo "$*" >"$STUB_ARGS"
    cat "$STUB_TRANSCRIPT"
    exit "$STUB_STATUS"
    ;;
*) echo "stub go: unexpected $*" >&2; exit 2 ;;
esac
`

type benchRun struct {
	dir    string // working directory, where BENCH_<n>.json lands
	args   string // the arguments the stub's go test saw; "" if not run
	stdout string
	err    error
}

// runBenchSh runs bench.sh n in a fresh directory (pre-populated with
// files) with the stub go first on PATH, exiting with status.
func runBenchSh(t *testing.T, n string, status string, files map[string]string) benchRun {
	t.Helper()
	if runtime.GOOS == "windows" {
		t.Skip("bench.sh is a POSIX sh script")
	}
	script, err := filepath.Abs("bench.sh")
	if err != nil {
		t.Fatal(err)
	}
	transcript, err := filepath.Abs(filepath.Join("testdata", "bench_transcript.txt"))
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "bin")
	dir := filepath.Join(tmp, "work")
	for _, d := range []string{bin, dir} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(bin, "go"), []byte(stubGo), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	argsFile := filepath.Join(tmp, "args")

	cmd := exec.Command(script, n, "-bench", "ColBatchEvalSweep$|Export(Emit|Flush)1M$|ClusterVsSingle1M$",
		"-benchtime", "10x", "./internal/colbatch/", "./internal/export/", "./internal/cluster/")
	cmd.Dir = dir
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "PATH=") && !strings.HasPrefix(kv, "GO=") {
			env = append(env, kv)
		}
	}
	cmd.Env = append(env,
		"PATH="+bin+string(os.PathListSeparator)+os.Getenv("PATH"),
		"STUB_TRANSCRIPT="+transcript,
		"STUB_ARGS="+argsFile,
		"STUB_STATUS="+status,
	)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	r := benchRun{dir: dir, err: cmd.Run(), stdout: stdout.String()}
	t.Logf("bench.sh stderr:\n%s", stderr.String())
	if args, err := os.ReadFile(argsFile); err == nil {
		r.args = strings.TrimSpace(string(args))
	}
	return r
}

func entries(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

func TestBenchShRecordsGolden(t *testing.T) {
	r := runBenchSh(t, "42", "0", nil)
	if r.err != nil {
		t.Fatalf("bench.sh 42: %v", r.err)
	}
	want := "-run ^$ -benchmem -bench ColBatchEvalSweep$|Export(Emit|Flush)1M$|ClusterVsSingle1M$ -benchtime 10x ./internal/colbatch/ ./internal/export/ ./internal/cluster/"
	if r.args != want {
		t.Errorf("go test saw\n  %s\nwant\n  %s", r.args, want)
	}
	transcript, err := os.ReadFile(filepath.Join("testdata", "bench_transcript.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if r.stdout != string(transcript) {
		t.Errorf("bench.sh did not echo the go test output verbatim:\n%s", r.stdout)
	}
	got, err := os.ReadFile(filepath.Join(r.dir, "BENCH_42.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(got) {
		t.Fatalf("BENCH_42.json is not valid JSON:\n%s", got)
	}
	golden := filepath.Join("testdata", "bench.golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantJSON, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSON) {
		t.Errorf("BENCH_42.json differs from %s:\n%s", golden, got)
	}

	// The schema as the committed snapshots use it.
	var doc struct {
		Schema     string
		Benchmarks []struct {
			Package, Name string
			Metrics       map[string]float64
		}
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "act-bench/1" || len(doc.Benchmarks) != 4 {
		t.Fatalf("schema %q with %d benchmarks, want act-bench/1 with 4", doc.Schema, len(doc.Benchmarks))
	}
	last := doc.Benchmarks[3]
	if last.Package != "internal/cluster" || last.Name != "BenchmarkClusterVsSingle1M" || last.Metrics["cluster_vs_single"] == 0 {
		t.Errorf("last record = %+v, want internal/cluster's BenchmarkClusterVsSingle1M with cluster_vs_single", last)
	}
}

func TestBenchShFailedRunWritesNothing(t *testing.T) {
	r := runBenchSh(t, "42", "1", nil)
	var exit *exec.ExitError
	if !errors.As(r.err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("bench.sh with a failing go test: %v, want exit status 1", r.err)
	}
	if names := entries(t, r.dir); len(names) != 0 {
		t.Errorf("failed run left %v", names)
	}
}

func TestBenchShRefusesToOverwrite(t *testing.T) {
	const old = "{\"schema\": \"act-bench/1\"}\n"
	r := runBenchSh(t, "42", "0", map[string]string{"BENCH_42.json": old})
	if r.err == nil {
		t.Fatal("bench.sh exited 0 with BENCH_42.json already present")
	}
	if r.args != "" {
		t.Errorf("bench.sh ran go test (%s) before refusing", r.args)
	}
	got, err := os.ReadFile(filepath.Join(r.dir, "BENCH_42.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != old {
		t.Errorf("BENCH_42.json changed to:\n%s", got)
	}
}

func TestBenchShWithoutNRecordsNothing(t *testing.T) {
	r := runBenchSh(t, "", "0", nil)
	if r.err != nil {
		t.Fatalf("bench.sh \"\": %v", r.err)
	}
	if r.args == "" {
		t.Error("go test was not run")
	}
	if names := entries(t, r.dir); len(names) != 0 {
		t.Errorf("run without N left %v", names)
	}
}
