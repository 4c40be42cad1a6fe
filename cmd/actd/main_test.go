package main

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"
)

// parse runs parseFlags on a fresh flag set, as main does on the command
// line; nothing is listened on or started.
func parse(args ...string) (options, error) {
	fs := flag.NewFlagSet("actd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseFlags(fs, args)
}

func TestParseFlagsRefusesBadValues(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substrings of the error, naming the setting and value
	}{
		{[]string{"-max-batch", "-1"}, "-max-batch -1"},
		{[]string{"-export-interval", "-1s"}, "Interval -1s"},
		{[]string{"-export-rate", "-1"}, "RateBytesPerSec -1"},
		{[]string{"-export-queue-depth", "-1"}, "QueueDepth -1"},
		{[]string{"-export-workers", "-1"}, "Workers -1"},
		{[]string{"-export-url", "http://a", "-export-workers", "-2"}, "Workers -2"},
	} {
		_, err := parse(tc.args...)
		if err == nil {
			t.Errorf("%v: accepted", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %q does not contain %q", tc.args, err, tc.want)
		}
	}
}

func TestParseFlagsAcceptsDefaultsAndZeros(t *testing.T) {
	opts, err := parse()
	if err != nil {
		t.Fatalf("defaults: %v", err)
	}
	if opts.export.Interval != 10*time.Second || opts.grace != 15*time.Second {
		t.Errorf("defaults: export interval %v, grace %v", opts.export.Interval, opts.grace)
	}
	opts, err = parse("-max-batch", "0", "-export-interval", "0", "-export-workers", "0",
		"-export-url", "http://a, http://b,", "-cluster-vnodes", "-1")
	if err != nil {
		t.Fatalf("zeros: %v", err)
	}
	if got := opts.export.URLs; len(got) != 2 || got[0] != "http://a" || got[1] != "http://b" {
		t.Errorf("export URLs = %q", got)
	}
}
