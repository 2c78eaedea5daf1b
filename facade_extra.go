package fairnn

import (
	"fairnn/internal/core"
	"fairnn/internal/set"
	"fairnn/internal/vector"
)

// This file names the further structures NewSet and NewVec return: the
// vector-space samplers (SimHash-backed Sections 3/4 for angular
// similarity), the weighted sampler (the paper's future-work direction,
// Section 1.3), the multi-radius adaptive sampler (the parameterless
// direction from the conclusion), the vector ground truth and the
// dynamic sampler.

// VecSampler solves r-NNS for inner-product similarity of unit vectors
// using the Section 3 construction over a SimHash family.
type VecSampler = core.Sampler[vector.Vec]

// VecSamplerIndependent solves r-NNIS for inner-product similarity using
// the Section 4 construction over a SimHash family (the LSH-table
// counterpart of VecIndependent's filter approach; super-linear space but
// distance-agnostic).
type VecSamplerIndependent = core.Independent[vector.Vec]

// SetWeighted samples near neighbors with probability proportional to a
// weight of their similarity (Section 1.3's weighted case).
type SetWeighted = core.Weighted[set.Set]

// SetMultiRadius samples from the tightest non-empty ball over a radius
// grid (the parameterless direction from the paper's conclusion).
type SetMultiRadius = core.MultiRadius[set.Set]

// WeightFunc maps a similarity (or distance) to a non-negative weight.
type WeightFunc = core.WeightFunc

// VecExact is the linear-scan ground truth for inner-product similarity
// (the vector twin of SetExact).
type VecExact = core.Exact[vector.Vec]

// SetDynamic is the insert/delete-capable fair sampler over item sets
// (uniform over the recalled ball via i.i.d. priorities; see
// internal/core.Dynamic for the construction).
type SetDynamic = core.Dynamic[set.Set]
