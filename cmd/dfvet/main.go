// Command dfvet runs the repo's static-analysis suite (internal/lint): the
// detorder, walltime, noalloc, and fingerprint analyzers over the Go
// packages matching the given patterns (default ./...).
//
// Usage:
//
//	dfvet [-format text|json|sarif] [-o file] [packages...]
//
// Exit status follows the `oblc vet` convention: 0 when the tree is clean,
// 1 when findings were reported, 2 on usage, load or write errors. Usage
// (an unknown flag or -format) is checked before any package is loaded
// or the -o file is created.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
	"repro/internal/lint/detorder"
	"repro/internal/lint/fingerprint"
	"repro/internal/lint/noalloc"
	"repro/internal/lint/walltime"
)

// Suite is the full analyzer set dfvet runs.
var suite = []*lint.Analyzer{
	detorder.Analyzer,
	walltime.Analyzer,
	noalloc.Analyzer,
	fingerprint.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dfvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "output format: text, json, or sarif")
	out := fs.String("o", "", "write output to file instead of stdout")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: dfvet [-format text|json|sarif] [-o file] [packages...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "json" && *format != "sarif" {
		fmt.Fprintf(stderr, "dfvet: unknown format %q\n", *format)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "dfvet:", err)
		return 2
	}
	findings, err := lint.Run(pkgs, suite)
	if err != nil {
		fmt.Fprintln(stderr, "dfvet:", err)
		return 2
	}

	w := stdout
	var f *os.File
	if *out != "" {
		if f, err = os.Create(*out); err != nil {
			fmt.Fprintln(stderr, "dfvet:", err)
			return 2
		}
		w = f
	}
	cwd, _ := os.Getwd()
	switch *format {
	case "text":
		err = lint.WriteText(w, findings)
	case "json":
		err = lint.WriteJSON(w, findings)
	default: // sarif
		err = lint.WriteSARIF(w, findings, suite, cwd)
	}
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "dfvet:", err)
		return 2
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
