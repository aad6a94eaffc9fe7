// Package surgery implements multi-patch lattice surgery on synthesized
// surface-code layouts: packing several logical patches onto one
// connectivity-constrained device, synthesizing merge→joint-measure→split
// schedules along declared seams, and emitting one combined circuit whose
// detector error model flows through the existing determinism-check/DEM/
// decoder/distance stack unchanged.
//
// The geometry follows the repo's rotated-code conventions (X-type boundary
// half-plaquettes on the top/bottom edges, Z-type on the left/right): a ZZ
// joint measurement merges two vertically adjacent patches across a seam
// row (rough boundaries touch), an XX joint measurement merges two
// horizontally adjacent patches across a seam column (smooth boundaries
// touch). Patches sit on a coarse grid with d+1 lattice steps between
// origins, so exactly one seam line separates grid neighbors.
package surgery

import (
	"errors"
	"fmt"
)

// Joint selects the logical two-qubit joint measurement of a merge/split
// operation.
type Joint int

const (
	// JointZZ measures Z̄⊗Z̄: a "rough" merge across a horizontal seam row
	// between two vertically adjacent patches.
	JointZZ Joint = iota
	// JointXX measures X̄⊗X̄: a "smooth" merge across a vertical seam column
	// between two horizontally adjacent patches.
	JointXX
)

// String names the joint observable.
func (j Joint) String() string {
	if j == JointXX {
		return "XX"
	}
	return "ZZ"
}

// PatchSpec declares one logical patch: its name, its cell on the coarse
// patch grid, and its code distance. Grid cell (Row, Col) maps to lattice
// offset (Row·(d+1))·V + (Col·(d+1))·U from the layout base, so patches in
// adjacent cells are separated by exactly one seam line.
type PatchSpec struct {
	Name     string
	Row, Col int
	Distance int
}

// Op declares one merge/split joint measurement between patches A and B
// (indices into Spec.Patches). JointZZ requires the patches to occupy
// vertically adjacent grid cells (same Col, |ΔRow| = 1); JointXX requires
// horizontally adjacent cells (same Row, |ΔCol| = 1).
type Op struct {
	A, B  int
	Joint Joint
}

// Spec declares a multi-patch layout and the surgery operations to perform
// on it. Rounds of 0 default to the common patch distance.
type Spec struct {
	Patches []PatchSpec
	Ops     []Op
	// PreRounds, MergeRounds and PostRounds set the length of the three
	// schedule phases: separate stabilizer rounds before the merge, merged
	// rounds holding the joint parity, and separate rounds after the split.
	PreRounds, MergeRounds, PostRounds int
}

// ErrBadSpec is the sentinel all spec-validation failures unwrap to.
var ErrBadSpec = errors.New("surgery: invalid layout spec")

// SpecError reports a layout-spec validation failure; it unwraps to
// ErrBadSpec.
type SpecError struct{ Reason string }

func (e *SpecError) Error() string { return "surgery: invalid layout spec: " + e.Reason }

// Unwrap ties the structured error to the ErrBadSpec sentinel.
func (e *SpecError) Unwrap() error { return ErrBadSpec }

func badSpec(format string, args ...any) error {
	return &SpecError{Reason: fmt.Sprintf(format, args...)}
}

// maxPatches bounds the packing problem; 2·maxPatches observables must fit
// in the DEM's 64-observable word.
const maxPatches = 16

// Normalized validates the spec and returns a canonical copy: names
// defaulted to p0, p1, …; grid positions shifted so the minimum row and
// column are zero; round counts defaulted to the patch distance; each op
// ordered so A is the upper (ZZ) or left (XX) patch.
func (s Spec) Normalized() (Spec, error) {
	out := s
	out.Patches = append([]PatchSpec(nil), s.Patches...)
	out.Ops = append([]Op(nil), s.Ops...)

	if len(out.Patches) == 0 {
		return out, badSpec("no patches")
	}
	if len(out.Patches) > maxPatches {
		return out, badSpec("%d patches exceeds the maximum of %d", len(out.Patches), maxPatches)
	}
	d := out.Patches[0].Distance
	if d < 3 || d%2 == 0 {
		return out, badSpec("patch %q distance %d: must be odd and >= 3", nameOf(out.Patches, 0), d)
	}
	minRow, minCol := out.Patches[0].Row, out.Patches[0].Col
	names := map[string]int{}
	cells := map[[2]int]int{}
	for i := range out.Patches {
		p := &out.Patches[i]
		if p.Name == "" {
			p.Name = fmt.Sprintf("p%d", i)
		}
		if prev, dup := names[p.Name]; dup {
			return out, badSpec("patches %d and %d share name %q", prev, i, p.Name)
		}
		names[p.Name] = i
		if p.Distance != d {
			return out, badSpec("patch %q distance %d differs from %d: all patches on one layout must share a distance", p.Name, p.Distance, d)
		}
		cell := [2]int{p.Row, p.Col}
		if prev, dup := cells[cell]; dup {
			return out, badSpec("patches %q and %q share grid cell (%d,%d)", out.Patches[prev].Name, p.Name, p.Row, p.Col)
		}
		cells[cell] = i
		if p.Row < minRow {
			minRow = p.Row
		}
		if p.Col < minCol {
			minCol = p.Col
		}
	}
	for i := range out.Patches {
		out.Patches[i].Row -= minRow
		out.Patches[i].Col -= minCol
	}

	inOp := make([]bool, len(out.Patches))
	for i := range out.Ops {
		op := &out.Ops[i]
		if op.A < 0 || op.A >= len(out.Patches) || op.B < 0 || op.B >= len(out.Patches) {
			return out, badSpec("op %d references patch out of range", i)
		}
		if op.A == op.B {
			return out, badSpec("op %d merges patch %q with itself", i, out.Patches[op.A].Name)
		}
		for _, pi := range []int{op.A, op.B} {
			if inOp[pi] {
				return out, badSpec("patch %q participates in more than one op", out.Patches[pi].Name)
			}
			inOp[pi] = true
		}
		a, b := out.Patches[op.A], out.Patches[op.B]
		switch op.Joint {
		case JointZZ:
			if a.Col != b.Col || absInt(a.Row-b.Row) != 1 {
				return out, badSpec("op %d (ZZ) needs vertically adjacent patches, got %q at (%d,%d) and %q at (%d,%d)",
					i, a.Name, a.Row, a.Col, b.Name, b.Row, b.Col)
			}
			if a.Row > b.Row {
				op.A, op.B = op.B, op.A
			}
		case JointXX:
			if a.Row != b.Row || absInt(a.Col-b.Col) != 1 {
				return out, badSpec("op %d (XX) needs horizontally adjacent patches, got %q at (%d,%d) and %q at (%d,%d)",
					i, a.Name, a.Row, a.Col, b.Name, b.Row, b.Col)
			}
			if a.Col > b.Col {
				op.A, op.B = op.B, op.A
			}
		default:
			return out, badSpec("op %d: unknown joint %d", i, op.Joint)
		}
	}

	for _, r := range []struct {
		name string
		v    *int
	}{{"pre", &out.PreRounds}, {"merge", &out.MergeRounds}, {"post", &out.PostRounds}} {
		if *r.v < 0 {
			return out, badSpec("%s rounds must be non-negative, got %d", r.name, *r.v)
		}
		if *r.v == 0 {
			*r.v = d
		}
	}
	return out, nil
}

// Distance returns the common patch distance.
func (s Spec) Distance() int {
	if len(s.Patches) == 0 {
		return 0
	}
	return s.Patches[0].Distance
}

// TotalRounds returns the length of the full schedule in stabilizer rounds.
func (s Spec) TotalRounds() int { return s.PreRounds + s.MergeRounds + s.PostRounds }

func nameOf(ps []PatchSpec, i int) string {
	if ps[i].Name != "" {
		return ps[i].Name
	}
	return fmt.Sprintf("p%d", i)
}

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
