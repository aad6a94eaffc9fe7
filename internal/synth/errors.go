package synth

import (
	"errors"
	"fmt"

	"surfstitch/internal/grid"
)

// Sentinel errors of the synthesis pipeline. Every failure path returns an
// error matching exactly one of these via errors.Is, wrapped in a structured
// error type carrying the context a caller (or a chaos harness) needs to
// act on the failure. A panic or an untyped error escaping Synthesize is a
// bug, and internal/chaos asserts exactly that invariant.
var (
	// ErrNoPlacement: no data-qubit layout exists — the device cannot host
	// the d x d data lattice anywhere (too small, too sparse, or too many
	// dead qubits under every candidate anchor).
	ErrNoPlacement = errors.New("no placement")
	// ErrDisconnected: a placement exists but some stabilizer admits no
	// local bridge tree — its data qubits are not routable within the
	// syndrome rectangle (broken couplers cut the routes).
	ErrDisconnected = errors.New("stabilizer disconnected")
	// ErrBudgetExceeded: the search was cut short by context cancellation
	// or deadline before an outcome was established.
	ErrBudgetExceeded = errors.New("search budget exceeded")
)

// PlacementError reports a failed data-qubit allocation with the search
// extent that was exhausted. It unwraps to ErrNoPlacement.
type PlacementError struct {
	Device   string
	Distance int
	Mode     Mode
	// Anchors and Lattices count the candidate bridge-rectangle anchors and
	// lattice bases the ladder tried before giving up.
	Anchors, Lattices int
	// Reason distinguishes "no high-degree seeds" from "no feasible base".
	Reason string
}

func (e *PlacementError) Error() string {
	return fmt.Sprintf("synth: no valid distance-%d data layout on %s (mode %v): %s (tried %d anchors, %d lattices)",
		e.Distance, e.Device, e.Mode, e.Reason, e.Anchors, e.Lattices)
}

// Unwrap ties the structured error to the ErrNoPlacement sentinel.
func (e *PlacementError) Unwrap() error { return ErrNoPlacement }

// RouteError reports an unroutable stabilizer. It unwraps to
// ErrDisconnected.
type RouteError struct {
	Device     string
	Stabilizer string // the stabilizer's display form
	Index      int    // index into Code.Stabilizers()
	Rect       grid.Rect
	Expand     int // how many expansion rings were tried
}

func (e *RouteError) Error() string {
	return fmt.Sprintf("synth: stabilizer %s on %s: no local bridge tree within %v (+%d rings)",
		e.Stabilizer, e.Device, e.Rect, e.Expand)
}

// Unwrap ties the structured error to the ErrDisconnected sentinel.
func (e *RouteError) Unwrap() error { return ErrDisconnected }

// BudgetError reports a canceled or deadline-exceeded search. It unwraps to
// both ErrBudgetExceeded and the underlying context error, so callers can
// match either errors.Is(err, synth.ErrBudgetExceeded) or
// errors.Is(err, context.Canceled).
type BudgetError struct {
	Stage string // "allocate", "trees", "co-optimize"
	Cause error  // the context's error
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("synth: %s interrupted: %v", e.Stage, e.Cause)
}

// Unwrap exposes both the sentinel and the context cause.
func (e *BudgetError) Unwrap() []error { return []error{ErrBudgetExceeded, e.Cause} }

// IsTyped reports whether err belongs to the synthesis pipeline's typed
// error taxonomy (directly or wrapped). The chaos harness treats any other
// error escaping the pipeline as a robustness failure.
func IsTyped(err error) bool {
	return errors.Is(err, ErrNoPlacement) ||
		errors.Is(err, ErrDisconnected) ||
		errors.Is(err, ErrBudgetExceeded)
}
