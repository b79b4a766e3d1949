package lint

import (
	"io"
	"path/filepath"
	"sort"

	"repro/internal/sarif"
)

// WriteSARIF renders findings as one SARIF 2.1.0 run of the dfvet driver.
// Rules are declared for every analyzer in the suite (found or not), so a
// clean run still advertises what was checked. File URIs are made relative
// to root when possible.
func WriteSARIF(w io.Writer, findings []Finding, analyzers []*Analyzer, root string) error {
	rules := make([]sarif.Rule, 0, len(analyzers))
	for _, a := range analyzers {
		rules = append(rules, sarif.Rule{ID: a.Name, Description: a.Doc})
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })

	results := make([]sarif.Result, 0, len(findings))
	for _, f := range findings {
		uri := f.File
		if root != "" {
			if rel, err := filepath.Rel(root, f.File); err == nil && !filepath.IsAbs(rel) && !isParentRel(rel) {
				uri = filepath.ToSlash(rel)
			}
		}
		results = append(results, sarif.Result{
			RuleID: f.Analyzer, Level: "error", Message: f.Message,
			URI: uri, Line: f.Line, Column: f.Column,
		})
	}
	return sarif.Write(w, "dfvet", rules, results)
}

func isParentRel(rel string) bool {
	return rel == ".." || len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator)
}
