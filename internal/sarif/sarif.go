// Package sarif writes SARIF 2.1.0, the static-analysis interchange format
// CI systems ingest for code-scanning annotations. Only the slice of the
// schema dfvet and `oblc vet` produce is modeled: one run, one tool driver
// with its rule registry, one located result per finding.
package sarif

import (
	"encoding/json"
	"io"
)

// Rule is one entry of the tool's rule registry. Level, when set, is the
// rule's default level.
type Rule struct {
	ID, Description, Level string
}

// Result is one finding. Line 0 means the position is unknown and the
// result carries no region.
type Result struct {
	RuleID, Level, Message, URI string
	Line, Column                int
}

type log struct {
	Schema  string `json:"$schema"`
	Version string `json:"version"`
	Runs    []run  `json:"runs"`
}

type run struct {
	Tool    tool     `json:"tool"`
	Results []result `json:"results"`
}

type tool struct {
	Driver driver `json:"driver"`
}

type driver struct {
	Name  string `json:"name"`
	Rules []rule `json:"rules"`
}

type rule struct {
	ID               string  `json:"id"`
	ShortDescription message `json:"shortDescription"`
	DefaultConfig    *config `json:"defaultConfiguration,omitempty"`
}

type config struct {
	Level string `json:"level"`
}

type message struct {
	Text string `json:"text"`
}

type result struct {
	RuleID    string     `json:"ruleId"`
	Level     string     `json:"level"`
	Message   message    `json:"message"`
	Locations []location `json:"locations"`
}

type location struct {
	PhysicalLocation physicalLocation `json:"physicalLocation"`
}

type physicalLocation struct {
	ArtifactLocation artifactLocation `json:"artifactLocation"`
	Region           *region          `json:"region,omitempty"`
}

type artifactLocation struct {
	URI string `json:"uri"`
}

type region struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// Write renders one run of the named tool as an indented SARIF log. Every
// rule is declared whether or not it fired, so consumers can tell "checked
// and clean" from "not checked".
func Write(w io.Writer, toolName string, rules []Rule, results []Result) error {
	drv := driver{Name: toolName, Rules: make([]rule, 0, len(rules))}
	for _, r := range rules {
		jr := rule{ID: r.ID, ShortDescription: message{Text: r.Description}}
		if r.Level != "" {
			jr.DefaultConfig = &config{Level: r.Level}
		}
		drv.Rules = append(drv.Rules, jr)
	}
	out := make([]result, 0, len(results))
	for _, r := range results {
		loc := physicalLocation{ArtifactLocation: artifactLocation{URI: r.URI}}
		if r.Line > 0 {
			loc.Region = &region{StartLine: r.Line, StartColumn: r.Column}
		}
		out = append(out, result{
			RuleID: r.RuleID, Level: r.Level, Message: message{Text: r.Message},
			Locations: []location{{PhysicalLocation: loc}},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []run{{Tool: tool{Driver: drv}, Results: out}},
	})
}
