package servefix

import (
	"errors"
	"testing"
)

// TestSpecValidateVecRadius checks that a vec spec's similarity
// threshold must leave planted near points strictly above it, and that
// line specs keep taking any positive radius.
func TestSpecValidateVecRadius(t *testing.T) {
	vec := func(r float64) Spec { return Spec{Dataset: "vec", N: 400, Dim: 16, Shards: 1, Seed: 45, Radius: r} }
	line := func(r float64) Spec { return Spec{Dataset: "line", N: 240, Shards: 3, Seed: 42, Radius: r} }
	cases := []struct {
		name string
		sp   Spec
		want error // nil: accepted
	}{
		{"vec line-sized radius", vec(40), errVecRadius},
		{"vec at the highest planted similarity", vec(0.98), errVecRadius},
		{"vec at the far band", vec(0.5), errVecRadius},
		{"vec inside the range", vec(0.55), nil},
		{"line default radius", line(40), nil},
		{"line small radius", line(0.55), nil},
	}
	for _, c := range cases {
		err := c.sp.Validate()
		if c.want == nil && err != nil {
			t.Errorf("%s: refused: %v", c.name, err)
		}
		if c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
}
