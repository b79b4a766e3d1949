package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/obl/analysis"
)

// namedSource is one OBL program to vet, with the name diagnostics carry in
// their File field.
type namedSource struct {
	Name string
	Src  string
}

// runVet implements the vet subcommand and returns the process exit code:
// 0 when every program is clean (informational findings allowed), 1 when
// any diagnostic of warning or error severity fired, 2 on usage or internal
// errors.
func runVet(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("oblc vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "", "vet a bundled application (barneshut, water, string)")
	all := fs.Bool("all", false, "vet the bundled apps, examples/*.obl, and the docs/obl.md listings")
	asJSON := fs.Bool("json", false, "print diagnostics as JSON")
	sarifOut := fs.String("sarif", "", "also write a SARIF 2.1.0 report to this file")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: oblc vet [-json] [-sarif report.sarif] file.obl... | -app name | -all")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var sources []namedSource
	switch {
	case *all:
		var err error
		sources, err = collectAll(".")
		if err != nil {
			fmt.Fprintln(stderr, "oblc vet:", err)
			return 2
		}
	case *app != "":
		src, err := apps.Source(*app)
		if err != nil {
			fmt.Fprintln(stderr, "oblc vet:", err)
			return 2
		}
		sources = append(sources, namedSource{Name: "app:" + *app, Src: src})
	case fs.NArg() > 0:
		for _, path := range fs.Args() {
			data, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintln(stderr, "oblc vet:", err)
				return 2
			}
			sources = append(sources, namedSource{Name: path, Src: string(data)})
		}
	default:
		fs.Usage()
		return 2
	}

	diags, err := vetSources(sources)
	if err != nil {
		fmt.Fprintln(stderr, "oblc vet:", err)
		return 2
	}

	if *sarifOut != "" {
		f, err := os.Create(*sarifOut)
		if err != nil {
			fmt.Fprintln(stderr, "oblc vet:", err)
			return 2
		}
		if err := analysis.RenderSARIF(f, diags); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "oblc vet:", err)
			return 2
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "oblc vet:", err)
			return 2
		}
	}
	if *asJSON {
		if err := analysis.RenderJSON(stdout, diags); err != nil {
			fmt.Fprintln(stderr, "oblc vet:", err)
			return 2
		}
	} else {
		if err := analysis.RenderText(stdout, diags); err != nil {
			fmt.Fprintln(stderr, "oblc vet:", err)
			return 2
		}
		if analysis.MaxSeverity(diags) < analysis.Warning {
			fmt.Fprintf(stdout, "oblc vet: %d program(s) clean\n", len(sources))
		}
	}
	if analysis.MaxSeverity(diags) >= analysis.Warning {
		return 1
	}
	return 0
}

// vetSources vets each program and returns the merged diagnostics, each
// tagged with its source name.
func vetSources(sources []namedSource) ([]analysis.Diagnostic, error) {
	var out []analysis.Diagnostic
	for _, s := range sources {
		diags, err := analysis.Vet(s.Src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		for _, d := range diags {
			d.File = s.Name
			out = append(out, d)
		}
	}
	return out, nil
}

// collectAll gathers every bundled OBL program under the repository root:
// the three applications, the example programs, and the complete-program
// listings of docs/obl.md.
func collectAll(root string) ([]namedSource, error) {
	var out []namedSource
	for _, name := range apps.Names {
		src, err := apps.Source(name)
		if err != nil {
			return nil, err
		}
		out = append(out, namedSource{Name: "app:" + name, Src: src})
	}
	paths, err := filepath.Glob(filepath.Join(root, "examples", "*", "*.obl"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		out = append(out, namedSource{Name: path, Src: string(data)})
	}
	docPath := filepath.Join(root, "docs", "obl.md")
	if data, err := os.ReadFile(docPath); err == nil {
		for i, block := range oblBlocks(string(data)) {
			out = append(out, namedSource{
				Name: fmt.Sprintf("%s#%d", docPath, i+1),
				Src:  block,
			})
		}
	}
	return out, nil
}

// oblBlocks extracts the ```obl fenced listings of a markdown document that
// are complete programs (they declare main); fragment listings illustrating
// single constructs are skipped.
func oblBlocks(md string) []string {
	var out []string
	lines := strings.Split(md, "\n")
	var cur []string
	in := false
	for _, line := range lines {
		switch {
		case !in && strings.TrimSpace(line) == "```obl":
			in = true
			cur = nil
		case in && strings.TrimSpace(line) == "```":
			in = false
			block := strings.Join(cur, "\n")
			if strings.Contains(block, "func main(") {
				out = append(out, block)
			}
		case in:
			cur = append(cur, line)
		}
	}
	return out
}
