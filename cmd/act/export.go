// The export subcommand: load an NDJSON fleet file and print one telemetry
// snapshot in Prometheus line protocol.
//
//	act export -file fleet.ndjson [-shards N] [-at RFC3339]
//	cat fleet.ndjson | act export
//
// The output is byte-identical to one uncompressed payload actd's push
// exporter sends for the same fleet at the same timestamp (-at pins it for
// reproducible diffs), so a collector can be validated offline before a
// single actd flag changes.

package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"act/internal/export"
	"act/internal/fleet"
)

func runExport(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("act export", flag.ContinueOnError)
	var (
		file   = fs.String("file", "", "path to an NDJSON fleet file (default: stdin)")
		shards = fs.Int("shards", 0, "registry shard count (0 = default 64)")
		at     = fs.String("at", "", "sample timestamp, RFC3339 (default: now)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ts := time.Now()
	if *at != "" {
		parsed, err := time.Parse(time.RFC3339, *at)
		if err != nil {
			return fmt.Errorf("parsing -at: %w", err)
		}
		ts = parsed
	}

	in := stdin
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	reg := fleet.New(fleet.Config{Shards: *shards})
	if _, err := reg.IngestNDJSON(in, 0); err != nil {
		return err
	}
	raw, err := export.Render(reg, ts)
	if err != nil {
		return err
	}
	_, err = stdout.Write(raw)
	return err
}
