package device

import (
	"fmt"

	"surfstitch/internal/grid"
)

// Square builds a square-tiled architecture with w x h unit squares, i.e. a
// (w+1) x (h+1) lattice of qubits with nearest-neighbor couplings. Interior
// qubits have degree 4. This is the densest Table 1 architecture (Google
// Sycamore style).
func Square(w, h int) *Device {
	checkTiles("Square", w, h)
	b := newBuilder()
	for y := 0; y <= h; y++ {
		for x := 0; x <= w; x++ {
			if x < w {
				b.couple(grid.C(x, y), grid.C(x+1, y))
			}
			if y < h {
				b.couple(grid.C(x, y), grid.C(x, y+1))
			}
		}
	}
	return b.freeze(fmt.Sprintf("square-%dx%d", w, h), KindSquare)
}

// Hexagon builds a hexagon-tiled (honeycomb) architecture with w x h bricks
// in the standard brick-wall grid embedding: every horizontal edge exists,
// and vertical edges exist where (x+y) is even. Qubit degree is at most 3.
// Each brick spans 2 columns and 1 row of the wall.
func Hexagon(w, h int) *Device {
	checkTiles("Hexagon", w, h)
	cols, rows := 2*w+1, h+1
	b := newBuilder()
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			if x+1 < cols {
				b.couple(grid.C(x, y), grid.C(x+1, y))
			}
			if y+1 < rows && (x+y)%2 == 0 {
				b.couple(grid.C(x, y), grid.C(x, y+1))
			}
		}
	}
	return b.freeze(fmt.Sprintf("hexagon-%dx%d", w, h), KindHexagon)
}

// Octagon builds an octagon-tiled architecture (the 4.8.8 truncated square
// tiling used by Rigetti) with w x h octagons. Each octagon occupies a 4x4
// grid cell; neighboring octagons connect through two parallel couplings.
// All interior qubits have degree 3.
func Octagon(w, h int) *Device {
	checkTiles("Octagon", w, h)
	b := newBuilder()
	// Ring offsets of one octagon within its 4x4 cell, in cyclic order.
	ring := []grid.Coord{
		{X: 1, Y: 0}, {X: 2, Y: 0}, {X: 3, Y: 1}, {X: 3, Y: 2},
		{X: 2, Y: 3}, {X: 1, Y: 3}, {X: 0, Y: 2}, {X: 0, Y: 1},
	}
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			origin := grid.C(4*i, 4*j)
			for k := range ring {
				a := origin.Add(ring[k])
				c := origin.Add(ring[(k+1)%len(ring)])
				b.couple(a, c)
			}
			if i+1 < w { // two couplings to the right neighbor
				b.couple(origin.Add(grid.C(3, 1)), origin.Add(grid.C(4, 1)))
				b.couple(origin.Add(grid.C(3, 2)), origin.Add(grid.C(4, 2)))
			}
			if j+1 < h { // two couplings to the bottom neighbor
				b.couple(origin.Add(grid.C(1, 3)), origin.Add(grid.C(1, 4)))
				b.couple(origin.Add(grid.C(2, 3)), origin.Add(grid.C(2, 4)))
			}
		}
	}
	return b.freeze(fmt.Sprintf("octagon-%dx%d", w, h), KindOctagon)
}

// HeavySquare builds the heavy-square architecture with w x h squares: the
// square lattice with one extra qubit inserted into every coupling. Lattice
// vertices sit at even coordinates (degree up to 4); inserted qubits have
// degree 2.
func HeavySquare(w, h int) *Device {
	checkTiles("HeavySquare", w, h)
	b := newBuilder()
	for y := 0; y <= h; y++ {
		for x := 0; x <= w; x++ {
			v := grid.C(2*x, 2*y)
			if x < w {
				mid := grid.C(2*x+1, 2*y)
				b.couple(v, mid)
				b.couple(mid, grid.C(2*x+2, 2*y))
			}
			if y < h {
				mid := grid.C(2*x, 2*y+1)
				b.couple(v, mid)
				b.couple(mid, grid.C(2*x, 2*y+2))
			}
		}
	}
	return b.freeze(fmt.Sprintf("heavy-square-%dx%d", w, h), KindHeavySquare)
}

// HeavyHexagon builds the heavy-hexagon architecture with w x h bricks: the
// honeycomb brick wall with one extra qubit inserted into every coupling
// (IBM's architecture). Wall vertices have degree up to 3; inserted qubits
// have degree 2.
func HeavyHexagon(w, h int) *Device {
	checkTiles("HeavyHexagon", w, h)
	cols, rows := 2*w+1, h+1
	b := newBuilder()
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			v := grid.C(2*x, 2*y)
			if x+1 < cols {
				mid := grid.C(2*x+1, 2*y)
				b.couple(v, mid)
				b.couple(mid, grid.C(2*x+2, 2*y))
			}
			if y+1 < rows && (x+y)%2 == 0 {
				mid := grid.C(2*x, 2*y+1)
				b.couple(v, mid)
				b.couple(mid, grid.C(2*x, 2*y+2))
			}
		}
	}
	return b.freeze(fmt.Sprintf("heavy-hexagon-%dx%d", w, h), KindHeavyHexagon)
}

// ByKind builds an architecture of the given family with w x h tiles. It
// panics on KindCustom, which has no parametric builder.
func ByKind(k Kind, w, h int) *Device {
	switch k {
	case KindSquare:
		return Square(w, h)
	case KindHexagon:
		return Hexagon(w, h)
	case KindOctagon:
		return Octagon(w, h)
	case KindHeavySquare:
		return HeavySquare(w, h)
	case KindHeavyHexagon:
		return HeavyHexagon(w, h)
	default:
		//surflint:ignore paniccheck KindCustom has no parametric builder by definition; reaching here is a programmer error the device tests assert on
		panic("device: ByKind requires a parametric architecture family")
	}
}

// AllKinds lists the parametric architecture families in Table 1 order.
func AllKinds() []Kind {
	return []Kind{KindSquare, KindHexagon, KindOctagon, KindHeavySquare, KindHeavyHexagon}
}

// ParseKind returns the parametric architecture family whose String is s.
func ParseKind(s string) (Kind, error) {
	for _, k := range AllKinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return KindCustom, fmt.Errorf("unknown architecture %q", s)
}

func checkTiles(name string, w, h int) {
	if w < 1 || h < 1 {
		panic(fmt.Sprintf("device: %s requires at least a 1x1 tiling, got %dx%d", name, w, h))
	}
}
