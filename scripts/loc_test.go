package scripts

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestLocCountsNonTestLines runs loc.sh in a scratch repository: a
// committed package, then a grown file, a new untracked package, a test
// file and an ignored file. Only the non-test, non-ignored lines count.
func TestLocCountsNonTestLines(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("loc.sh is a POSIX sh script")
	}
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("no git on PATH")
	}
	script, err := filepath.Abs("loc.sh")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(name, args...)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "GIT_CONFIG_GLOBAL=/dev/null", "GIT_CONFIG_NOSYSTEM=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}
	write := func(name, content string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	run("git", "init", "-q")
	write("a/a.go", "package a\n\nvar x = 1\n")
	write("a/a_test.go", "package a\n")
	write(".gitignore", "gen/\n")
	run("git", "add", "-A")
	run("git", "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "base")

	write("a/a.go", "package a\n\nvar x = 1\nvar y = 2\n")
	write("a/a_test.go", "package a\n\n// more test lines\n")
	write("b/b.go", "package b\n\nvar z = 3\n")
	write("gen/g.go", "package gen\n")
	got := run("sh", script)
	want := "      4     +1  a\n      3     +3  b\n      7     +4  total, net non-test delta against HEAD\n"
	if got != want {
		t.Errorf("loc.sh printed\n%s\nwant\n%s", got, want)
	}
	if got := run("sh", script, "HEAD"); !strings.HasSuffix(got, "against HEAD\n") {
		t.Errorf("loc.sh HEAD printed %q", got)
	}
}
