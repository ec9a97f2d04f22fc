// Package core implements the Tagging Behavior Dual Mining (TagDM) engine:
// the generalized constrained-optimization problem of Definition 4 and the
// paper's algorithm families for solving it — the exact brute-force
// baseline (Section 3.1), the LSH-based SM-LSH/SM-LSH-Fi/SM-LSH-Fo
// similarity maximizers (Section 4), and the facility-dispersion-based
// DV-FDP/DV-FDP-Fi/DV-FDP-Fo diversity maximizers (Section 5).
package core

import (
	"fmt"
	"math"

	"tagdm/internal/mining"
)

// Constraint is one hard constraint c_i: F(Gopt, Dim, Meas) >= Threshold.
type Constraint struct {
	Dim       mining.Dimension
	Meas      mining.Measure
	Threshold float64
}

func (c Constraint) String() string {
	return fmt.Sprintf("%s(%s) >= %.2f", c.Meas, c.Dim, c.Threshold)
}

// Objective is one optimization criterion o_j with weight o_j.Wt; the
// engine maximizes the weighted sum of objective scores.
type Objective struct {
	Dim    mining.Dimension
	Meas   mining.Measure
	Weight float64
}

func (o Objective) String() string {
	return fmt.Sprintf("%.2f*%s(%s)", o.Weight, o.Meas, o.Dim)
}

// ProblemSpec is a concrete TagDM problem instance <G, C, O> plus the
// structural constraints of Definition 4: group-count bounds and minimum
// group support.
type ProblemSpec struct {
	// KLo and KHi bound the number of returned groups (klo <= |Gopt| <= khi).
	KLo, KHi int
	// MinSupport is p: the union of returned groups must cover at least
	// this many tagging action tuples. Zero disables the check.
	MinSupport int
	// Constraints are the hard constraints C.
	Constraints []Constraint
	// Objectives are the optimization criteria O (weighted sum maximized).
	Objectives []Objective
	// Name labels the instance in reports (e.g. "Problem 4").
	Name string
}

// Validate rejects malformed specs.
func (p ProblemSpec) Validate() error {
	if p.KLo < 1 {
		return fmt.Errorf("core: KLo must be >= 1, got %d", p.KLo)
	}
	if p.KHi < p.KLo {
		return fmt.Errorf("core: KHi %d < KLo %d", p.KHi, p.KLo)
	}
	if len(p.Objectives) == 0 {
		return fmt.Errorf("core: no objectives")
	}
	// Negated comparisons, so that NaN fails them: a NaN threshold would
	// switch its constraint off (mean < NaN never holds), and the solvers'
	// rounding bounds assume finite positive weights.
	for _, o := range p.Objectives {
		if !(o.Weight > 0 && o.Weight <= math.MaxFloat64) {
			return fmt.Errorf("core: objective %s has non-positive weight", o)
		}
	}
	for _, c := range p.Constraints {
		if !(c.Threshold >= 0 && c.Threshold <= 1) {
			return fmt.Errorf("core: constraint %s threshold out of [0,1]", c)
		}
	}
	return nil
}

// OptimizesSimilarityOnly reports whether every objective is a similarity
// criterion; the SM-LSH family applies only then (Section 4).
func (p ProblemSpec) OptimizesSimilarityOnly() bool {
	for _, o := range p.Objectives {
		if o.Meas != mining.Similarity {
			return false
		}
	}
	return true
}

// paperMeasures holds the per-dimension measure assignments of Table 1.
var paperMeasures = map[int][3]mining.Measure{
	// index order: users, items, tags
	1: {mining.Similarity, mining.Similarity, mining.Similarity},
	2: {mining.Similarity, mining.Diversity, mining.Similarity},
	3: {mining.Diversity, mining.Similarity, mining.Similarity},
	4: {mining.Diversity, mining.Similarity, mining.Diversity},
	5: {mining.Similarity, mining.Diversity, mining.Diversity},
	6: {mining.Similarity, mining.Similarity, mining.Diversity},
}

// PaperProblem returns Table 1's problem instance id (1..6) with the given
// parameters: at most k groups, support >= p, user-dimension threshold q
// and item-dimension threshold r, optimizing the tag dimension.
func PaperProblem(id, k, p int, q, r float64) (ProblemSpec, error) {
	ms, ok := paperMeasures[id]
	if !ok {
		return ProblemSpec{}, fmt.Errorf("core: paper problem id %d not in 1..6", id)
	}
	spec := ProblemSpec{
		KLo:        1,
		KHi:        k,
		MinSupport: p,
		Constraints: []Constraint{
			{Dim: mining.Users, Meas: ms[0], Threshold: q},
			{Dim: mining.Items, Meas: ms[1], Threshold: r},
		},
		Objectives: []Objective{{Dim: mining.Tags, Meas: ms[2], Weight: 1}},
		Name:       fmt.Sprintf("Problem %d", id),
	}
	return spec, nil
}

// AllRoles enumerates the framework's concrete problem instances: for each
// of the 2^3 per-dimension measure assignments, each dimension is
// independently a constraint, an objective, or unused (the paper counts 112
// instances from these two variation axes). The enumeration here keeps only
// *solvable* instances — at least one objective — and treats the measure of
// an unused dimension as irrelevant, deduplicating accordingly, which
// yields 98 distinct optimizable specs. Thresholds default to 0.5, k to
// [1, 3], with no support floor; callers adjust as needed.
func AllRoles() []ProblemSpec {
	type role uint8
	const (
		unused role = iota
		constrain
		optimize
	)
	dims := []mining.Dimension{mining.Users, mining.Items, mining.Tags}
	seen := make(map[string]bool)
	var out []ProblemSpec
	var measures [3]mining.Measure
	var roles [3]role
	var rec func(i int)
	buildKey := func() string {
		key := ""
		for d := 0; d < 3; d++ {
			switch roles[d] {
			case unused:
				key += "u--;" // measure irrelevant when unused
			case constrain:
				key += fmt.Sprintf("c%s;", measures[d])
			case optimize:
				key += fmt.Sprintf("o%s;", measures[d])
			}
		}
		return key
	}
	var rec2 func(i int)
	rec = func(i int) {
		if i == 3 {
			rec2(0)
			return
		}
		for _, m := range []mining.Measure{mining.Similarity, mining.Diversity} {
			measures[i] = m
			rec(i + 1)
		}
	}
	rec2 = func(i int) {
		if i == 3 {
			anyUsed := roles[0] != unused || roles[1] != unused || roles[2] != unused
			anyObjective := roles[0] == optimize || roles[1] == optimize || roles[2] == optimize
			if !anyUsed || !anyObjective {
				return
			}
			key := buildKey()
			if seen[key] {
				return
			}
			seen[key] = true
			spec := ProblemSpec{KLo: 1, KHi: 3, Name: key}
			for d := 0; d < 3; d++ {
				switch roles[d] {
				case constrain:
					spec.Constraints = append(spec.Constraints,
						Constraint{Dim: dims[d], Meas: measures[d], Threshold: 0.5})
				case optimize:
					spec.Objectives = append(spec.Objectives,
						Objective{Dim: dims[d], Meas: measures[d], Weight: 1})
				}
			}
			out = append(out, spec)
			return
		}
		for _, r := range []role{unused, constrain, optimize} {
			roles[i] = r
			rec2(i + 1)
		}
	}
	rec(0)
	return out
}
