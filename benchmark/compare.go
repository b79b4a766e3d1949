package main

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// compareFiles applies each end-to-end metric's direction and bound to two
// sets of runs (a: parent, b: change), one row per workload and metric, and
// returns the exit code: 1 on a regression or on more failed ops in b.
//
// A row is "unresolved" rather than "ok" when the run-to-run spread of
// either set is wider than the bound: the sets cannot then show that the
// metric stayed put. Every run of b reading better than every run of a is
// "improved" whatever the spread.
func compareFiles(pathA, pathB string, w io.Writer) int {
	a, errA := readDocs(pathA)
	b, errB := readDocs(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(w, "dfperf:", err)
		return 2
	}
	return compareSets(a, b, w)
}

func compareSets(a, b map[string][]*runDoc, w io.Writer) int {
	code := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian a\tmedian b\tworse by\tbound\tspread a\tspread b\tverdict")
	for _, name := range sortedKeys(a) {
		da, db := a[name], b[name]
		if len(db) == 0 {
			fmt.Fprintf(tw, "%s\t-\t\t\t\t\t\t\tmissing in b\n", name)
			code = 1
			continue
		}
		for _, m := range endToEnd {
			va, vb := metricValues(da, m.Name), metricValues(db, m.Name)
			sort.Float64s(va)
			sort.Float64s(vb)
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			allBetter := vb[len(vb)-1] < va[0]
			if m.Better == higher {
				worse = (ma - mb) / ma
				allBetter = vb[0] > va[len(va)-1]
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case allBetter:
				verdict = "improved"
			case max(sa, sb) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSION"
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.3f\t%.2f\t%.3f\t%.3f\t%s\n",
				name, m.Name, ma, mb, worse, m.Bound, sa, sb, verdict)
		}
		fa, fb := failShare(da), failShare(db)
		verdict := "ok"
		if fb > fa {
			verdict = "REGRESSION"
			code = 1
		}
		fmt.Fprintf(tw, "%s\tfail_share\t%.4g\t%.4g\t\t0\t\t\t%s\n", name, fa, fb, verdict)
	}
	tw.Flush()
	return code
}

// failShare is failed ops over attempted ops across a set's runs.
func failShare(docs []*runDoc) float64 {
	var failed, attempted float64
	for _, d := range docs {
		attempted += float64(d.Attempted)
		failed += float64(d.Failed)
	}
	if attempted == 0 {
		return 1
	}
	return failed / attempted
}
