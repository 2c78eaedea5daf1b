package main

import (
	"math"
	"slices"
	"strings"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{2000, 0.99, 1980, true}, // 20 beyond
		{1000, 0.99, 990, true},  // exactly 10 beyond
		{999, 0.99, 0, false},    // 9 beyond
		{3000, 0.50, 1500, true},
		{20, 0.50, 10, true},
		{19, 0.50, 0, false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

func TestMedianMatchesPython(t *testing.T) {
	// Reference values from Python's statistics.median.
	for _, tc := range []struct {
		data []float64
		med  float64
	}{
		{[]float64{1, 2, 3}, 2},
		{[]float64{5, 1, 4, 2, 3}, 3},
		{[]float64{10, 20, 30, 40}, 25},
		{[]float64{2.5, 0.5, 9.0, 4.0, 7.5, 1.0}, 3.25},
	} {
		in := slices.Clone(tc.data)
		if m := median(in); m != tc.med {
			t.Errorf("median(%v) = %v; want %v", tc.data, m, tc.med)
		}
		if !slices.Equal(in, tc.data) {
			t.Errorf("median reordered %v to %v", tc.data, in)
		}
	}
}

func TestChiSquarePValue(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-7 }
	// The χ²(1) and χ²(10) 95th percentiles, and χ²(2), whose survival
	// function is exp(−x/2). Bins without expected mass do not count.
	for _, tc := range []struct {
		observed, expected []float64
		df                 int
		p                  float64
	}{
		{[]float64{100, 0}, []float64{100, 0}, 0, 1},
		{[]float64{50 + math.Sqrt(3.841458820694124*25), 50 - math.Sqrt(3.841458820694124*25)}, []float64{50, 50}, 1, 0.05},
		{[]float64{40, 20, 30}, []float64{30, 30, 30}, 2, math.Exp(-(200.0 / 30) / 2)},
		{[]float64{7, 7, 7, 0}, []float64{7, 7, 7, 0}, 2, 1},
	} {
		_, df, p := chiSquare(tc.observed, tc.expected)
		if df != tc.df || !near(p, tc.p) {
			t.Errorf("chiSquare(%v, %v): df %d p %v; want df %d p %v", tc.observed, tc.expected, df, p, tc.df, tc.p)
		}
	}
	var obs, exp [11]float64
	for i := range exp {
		exp[i] = 100
		obs[i] = 100
	}
	// Shift mass until the statistic is the χ²(10) 95th percentile.
	d := math.Sqrt(18.307038053275146 * 100 / 2)
	obs[0] += d
	obs[1] -= d
	if _, df, p := chiSquare(obs[:], exp[:]); df != 10 || !near(p, 0.05) {
		t.Errorf("χ²(10) at its 95th percentile: df %d p %v; want 10, 0.05", df, p)
	}
}

func TestBudgetArithmetic(t *testing.T) {
	ops := [3]opCost{
		{perCall: 2, server: 40, wait: 8},    // 96
		{perCall: 100, server: 5, wait: 1.9}, // 690
		{perCall: 1, server: 3, wait: 2},     // 5
	}
	b := newBudget(1000, 100, 850, 700, ops)
	if b.client != 50 || b.shard != 150 {
		t.Fatalf("client.self %v shard.self %v; want 50, 150", b.client, b.shard)
	}
	if math.Abs(b.residual-9) > 1e-9 || math.Abs(b.frac()-0.009) > 1e-12 {
		t.Fatalf("residual %v (frac %v); want 9 (0.009)", b.residual, b.frac())
	}
	// The parts and the residual add back to the call.
	sum := b.client + b.shard + b.residual
	for _, o := range b.ops {
		sum += o.perCall * (o.server + o.wait)
	}
	if math.Abs(sum-b.call) > 1e-9 {
		t.Fatalf("parts sum to %v, call is %v", sum, b.call)
	}
	if s := b.String(); !strings.Contains(s, "residual 9.0 (0.9%)") {
		t.Fatalf("budget line %q lacks the residual", s)
	}
}

func TestJoinBoolValue(t *testing.T) {
	got := joinBoolValue([]string{"--workload", "x", "--trace", "0", "-seed", "3", "-trace", "true", "-trace"}, "trace")
	want := []string{"--workload", "x", "--trace=0", "-seed", "3", "-trace=true", "-trace"}
	if !slices.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}
