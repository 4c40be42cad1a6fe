package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the artifact goldens in testdata/paper")

// goldenDir holds one golden per artifact, <id>.txt.
var goldenDir = filepath.Join("testdata", "paper")

// render returns one artifact's ASCII exactly as `actpaper -outdir`
// writes it to <id>.txt: each table followed by a newline.
func render(t *testing.T, r Result) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, tab := range r.Tables {
		s, err := tab.ASCII()
		if err != nil {
			t.Fatalf("%s: %v", r.Experiment.ID, err)
		}
		b.WriteString(s + "\n")
	}
	return b.Bytes()
}

// readGolden returns testdata/paper/<id>.txt, first rewriting it with got
// under -update.
func readGolden(t *testing.T, id string, got []byte) []byte {
	t.Helper()
	path := filepath.Join(goldenDir, id+".txt")
	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	return want
}

// TestRunAllGolden pins every artifact byte for byte: RunAll at 1 and at 4
// workers renders each one exactly as its committed golden, so a change to
// the model math shows up as a golden diff. A golden with no artifact
// fails too. Regenerate with
// `go test ./internal/experiments -run TestRunAllGolden -update`.
func TestRunAllGolden(t *testing.T) {
	for _, workers := range []int{1, 4} {
		got, err := RunAll(context.Background(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(registry) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(registry))
		}
		for _, r := range got {
			blob := render(t, r)
			if want := readGolden(t, r.Experiment.ID, blob); !bytes.Equal(blob, want) {
				t.Errorf("workers=%d: %s differs from %s/%s.txt", workers, r.Experiment.ID, goldenDir, r.Experiment.ID)
			}
		}
	}
	files, err := filepath.Glob(filepath.Join(goldenDir, "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if _, ok := registry[strings.TrimSuffix(filepath.Base(f), ".txt")]; !ok {
			t.Errorf("%s has no artifact", f)
		}
	}
}

func TestRunAllCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunAll(ctx, 2); err == nil {
		t.Error("cancelled context: expected error")
	}
}
