// The script subcommand: run a sandboxed scenario program through the
// internal/script interpreter under hard resource budgets. The output is
// byte-identical to the body actd returns for the same program POSTed to
// /v1/script — the canonical script result envelope — so pipelines can
// swap between the CLI and the service without re-parsing.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"act/internal/script"
)

func runScript(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("script", flag.ContinueOnError)
	var (
		path     = fs.String("file", "", "path to a program (default: the one argument, else stdin)")
		maxSteps = fs.Int64("max-steps", 0, "evaluator step budget (0 = default 5000000, negative disables)")
		maxBytes = fs.Int64("max-bytes", 0, "allocation estimate budget in bytes (0 = default 16 MiB, negative disables)")
		timeout  = fs.Duration("timeout", 0, "wall-clock budget (0 = default 5s)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case fs.NArg() > 1:
		return fmt.Errorf("script: want one program path, got %d arguments: %q", fs.NArg(), fs.Args())
	case fs.NArg() == 1 && *path != "":
		return fmt.Errorf("script: program %q given twice, as -file %q and as an argument", fs.Arg(0), *path)
	case fs.NArg() == 1:
		*path = fs.Arg(0)
	}

	in := stdin
	if *path != "" {
		f, err := os.Open(*path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	src, err := io.ReadAll(in)
	if err != nil {
		return err
	}

	res, err := script.Eval(context.Background(), string(src), script.Options{
		Budget: script.Budget{
			MaxSteps:      *maxSteps,
			MaxAllocBytes: *maxBytes,
			Timeout:       *timeout,
		},
	})
	if err != nil {
		return err
	}
	return res.Encode(stdout)
}
