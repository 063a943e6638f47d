package main

import (
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), the
// estimator the acceptance rule for this benchmark is stated in. It needs two
// samples; with fewer it returns the sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// verdict judges one workload x metric pairing: a holds the parent's values,
// b the change's. Worsening is relative to a's median, signed so that
// positive is worse.
//
//	worse       the median worsened by more than the bound, and either a's
//	            own runs agree within the bound or every run of b is worse
//	            than every run of a
//	unresolved  a's run-to-run spread is wider than the bound, so the medians
//	            cannot be told apart — unless every run of b reads better
//	            than every run of a, which is ok
//	ok          otherwise
func verdict(a, b []float64, def metricDef) (change float64, v string) {
	ma, mb := median(a), median(b)
	change = ratio(mb-ma, ma)
	worsening := change
	lo, hi := a, b // "every hi above every lo" means b is worse
	if def.Better == "higher" {
		worsening = -change
		lo, hi = b, a
	}
	allAbove := func(xs, ys []float64) bool { // every x above every y
		sx, sy := sortedCopy(xs), sortedCopy(ys)
		return sx[0] > sy[len(sy)-1]
	}
	noisy := spread(a) > *def.Bound
	switch {
	case worsening > *def.Bound && (!noisy || allAbove(hi, lo)):
		return change, "worse"
	case noisy && !allAbove(lo, hi):
		return change, "unresolved"
	}
	return change, "ok"
}

// compareMain prints one row per workload x end-to-end metric of two suite
// files and exits 1 if any row is worse.
func compareMain(fileA, fileB string, stdout io.Writer) int {
	load := func(path string) (map[string]map[string][]float64, bool) {
		data, err := os.ReadFile(path)
		if err != nil {
			logf("compare: %v", err)
			return nil, false
		}
		st, err := parseSuite(data)
		if err != nil {
			logf("compare: %s: %v", path, err)
			return nil, false
		}
		vals := map[string]map[string][]float64{}
		for _, r := range st.Runs {
			if r.Trace != 0 {
				continue
			}
			if !r.Result.Correct {
				logf("compare: %s: %s seed %d had failed operations", path, r.Workload, r.Seed)
				return nil, false
			}
			if vals[r.Workload] == nil {
				vals[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Result.Metrics {
				vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
			}
		}
		return vals, true
	}
	a, okA := load(fileA)
	b, okB := load(fileB)
	if !okA || !okB {
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta (median)\tb (median)\tchange\tbound\tspread a\truns\tverdict")
	worse := false
	for _, wl := range workloadOrder {
		for _, def := range endToEnd {
			xa, xb := a[wl][def.Name], b[wl][def.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\t-\t-\t%d/%d\tmissing\n", wl, def.Name, def.Unit, len(xa), len(xb))
				worse = true
				continue
			}
			change, v := verdict(xa, xb, def)
			worse = worse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%.1f%%\t%d/%d\t%s\n",
				wl, def.Name, def.Unit, median(xa), median(xb), 100*change, 100**def.Bound, 100*spread(xa), len(xa), len(xb), v)
		}
	}
	if err := tw.Flush(); err != nil {
		logf("compare: %v", err)
		return 2
	}
	if worse {
		return 1
	}
	return 0
}
