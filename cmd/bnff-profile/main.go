// bnff-profile is the analysis front door: it prices a model on the
// analytical Skylake machine model and, with no verb, measures real training
// next to that prediction. Every verb gets its graph the same way — build the
// model, restructure it, price it (experiments.Simulate) — and the modeled
// Chrome trace comes from one writer, memsim's Report.ChromeTrace.
//
// Usage:
//
//	bnff-profile [flags]          measured vs modeled layer breakdown per scenario
//	bnff-profile paper [flags]    regenerate the paper's tables and figures
//	bnff-profile graph [flags]    per-operator sweep/FLOP dump, Graphviz, trace
//	bnff-profile cache [flags]    cache-simulator cross-check of the sweep accounting
//
// Examples:
//
//	bnff-profile -model tiny-densenet
//	bnff-profile -model tiny-cnn -clock step        # deterministic traces
//	bnff-profile paper -exp fig7
//	bnff-profile graph -model densenet121 -restructure bnff -summary
//	bnff-profile graph -model resnet50 -restructure baseline -dir backward
//	bnff-profile cache -model tiny-resnet -sweep-batches
//
// Run a verb with -h for its flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

func main() {
	// -h has printed its usage already; like flag.ExitOnError, it succeeds.
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "bnff-profile:", err)
		os.Exit(1)
	}
}

// run dispatches on the first argument: a bare word names a verb, anything
// else (a flag, or nothing) is the measured run.
func run(args []string, stdout io.Writer) error {
	verb := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		verb, args = args[0], args[1:]
	}
	switch verb {
	case "":
		return runMeasured(args, stdout)
	case "paper":
		return runPaper(args, stdout)
	case "graph":
		return runGraph(args, stdout)
	case "cache":
		return runCache(args, stdout)
	default:
		return fmt.Errorf("unknown verb %q (want paper, graph, cache, or none for the measured run)", verb)
	}
}

// parse parses a verb's flags and rejects leftover arguments, so a verb
// placed after the flags is an error rather than silently ignored.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("%s: unexpected argument %q", fs.Name(), fs.Arg(0))
	}
	return nil
}

// refuseNonPositive rejects any of the named numeric flags set explicitly to
// zero or below: Normalize reads a zero spec field as "use the default", so a
// -steps 0 would otherwise profile the default number of steps.
func refuseNonPositive(fs *flag.FlagSet, names ...string) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err != nil || !slices.Contains(names, f.Name) {
			return
		}
		if v, _ := strconv.ParseFloat(f.Value.String(), 64); !(v > 0) {
			err = fmt.Errorf("-%s %s must be positive", f.Name, f.Value)
		}
	})
	return err
}

// writeFile creates path and fills it with write: the one place a trace
// reaches disk.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
