// Package experiments reproduces every figure of the paper's Section 6
// evaluation as a text table / data series:
//
//   - Fig1: output distribution of standard LSH vs fair LSH on the two
//     set-similarity datasets (Q1, §6.1).
//   - Fig2: empirical sampling probabilities of X, Y, Z on the adversarial
//     instance under approximate-neighborhood sampling (Q2, §6.2).
//   - Fig3: the ratio b_cr/b_r across radii and approximation factors
//     (Q3, §6.3).
//   - Q3Cost: the additional computational cost of exact fairness —
//     points inspected and wall time per query for every sampler.
//
// Beyond the figures:
//
//   - Validate: the fairness theorems checked on a known ball — TV from
//     uniform, χ² p-value and pairwise independence per structure.
//   - Scaling: the fitted growth exponent of Section 5 query cost in n,
//     against the linear scan.
//   - Chaos: seeded random fault schedules against an in-process sharded
//     sampler, checking near answers, typed errors and bounded stalls.
//   - ServeChaos: seeded kill/restart cycles against a live loopback
//     server fleet under concurrent callers, checking degradation,
//     readmission and the operator health endpoint.
//
// Each runner returns a plain result struct so tests can assert on shapes
// (who wins, by what factor) and the CLI can print the rows.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// WriteTable renders rows as an aligned text table.
func WriteTable(w io.Writer, title string, headers []string, rows [][]string) error {
	if _, err := fmt.Fprintf(w, "\n== %s ==\n", title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for i, h := range headers {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, h)
	}
	fmt.Fprintln(tw)
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, cell)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// f formats a float compactly for tables.
func f(v float64) string { return fmt.Sprintf("%.4f", v) }

// f2 formats with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// sortedKeysF64 returns the keys of m in ascending order.
func sortedKeysF64[V any](m map[float64]V) []float64 {
	keys := make([]float64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	return keys
}
