package device

import (
	"strings"
	"testing"

	"surfstitch/internal/grid"
)

func TestSquareCounts(t *testing.T) {
	d := Square(3, 2)
	if d.Len() != 4*3 {
		t.Fatalf("qubits = %d, want 12", d.Len())
	}
	// Edges: horizontal 3*3 + vertical 4*2 = 17.
	if got := d.Graph().EdgeCount(); got != 17 {
		t.Fatalf("edges = %d, want 17", got)
	}
	if d.MaxDegree() != 4 {
		t.Errorf("max degree = %d, want 4", d.MaxDegree())
	}
	if d.Kind() != KindSquare {
		t.Errorf("kind = %v, want square", d.Kind())
	}
}

func TestSquareDegreeDistribution(t *testing.T) {
	d := Square(4, 4) // 5x5 lattice
	var deg2, deg3, deg4 int
	for q := 0; q < d.Len(); q++ {
		switch d.Degree(q) {
		case 2:
			deg2++
		case 3:
			deg3++
		case 4:
			deg4++
		default:
			t.Fatalf("unexpected degree %d", d.Degree(q))
		}
	}
	if deg2 != 4 { // corners
		t.Errorf("corner count = %d, want 4", deg2)
	}
	if deg3 != 12 { // edge nodes: 4 sides x 3
		t.Errorf("edge-node count = %d, want 12", deg3)
	}
	if deg4 != 9 { // interior 3x3
		t.Errorf("interior count = %d, want 9", deg4)
	}
}

func TestHexagonDegreeAtMost3(t *testing.T) {
	d := Hexagon(4, 3)
	if d.MaxDegree() > 3 {
		t.Fatalf("hexagon max degree = %d, want <= 3", d.MaxDegree())
	}
	if d.AvgDegree() >= 3 {
		t.Errorf("avg degree = %.2f, want < 3 (sparse SC device)", d.AvgDegree())
	}
}

func TestHexagonIsBipartiteBrickWall(t *testing.T) {
	// Honeycomb is bipartite; verify via 2-coloring BFS.
	d := Hexagon(3, 3)
	g := d.Graph()
	color := make([]int, d.Len())
	for i := range color {
		color[i] = -1
	}
	color[0] = 0
	queue := []int{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if color[v] == -1 {
				color[v] = 1 - color[u]
				queue = append(queue, v)
			} else if color[v] == color[u] {
				t.Fatal("hexagon graph is not bipartite")
			}
		}
	}
}

func TestOctagonDegrees(t *testing.T) {
	d := Octagon(2, 2)
	if d.Len() != 8*4 {
		t.Fatalf("qubits = %d, want 32", d.Len())
	}
	if d.MaxDegree() != 3 {
		t.Fatalf("max degree = %d, want 3", d.MaxDegree())
	}
	// Single octagon: all degree 2.
	single := Octagon(1, 1)
	for q := 0; q < single.Len(); q++ {
		if single.Degree(q) != 2 {
			t.Fatalf("isolated octagon qubit degree = %d, want 2", single.Degree(q))
		}
	}
	// Each inter-octagon border contributes 2 couplings:
	// edges = 8 per octagon * 4 + 2 * (horizontal borders 1*2 + vertical 2*1).
	if got := d.Graph().EdgeCount(); got != 32+8 {
		t.Fatalf("edges = %d, want 40", got)
	}
}

func TestHeavySquareStructure(t *testing.T) {
	d := HeavySquare(2, 2)
	// vertices (3x3) + edge qubits (horizontal 2*3 + vertical 3*2) = 9+12 = 21
	if d.Len() != 21 {
		t.Fatalf("qubits = %d, want 21", d.Len())
	}
	if d.MaxDegree() != 4 {
		t.Fatalf("max degree = %d, want 4", d.MaxDegree())
	}
	// Every odd-coordinate qubit is an inserted (degree-2) qubit.
	for q := 0; q < d.Len(); q++ {
		c := d.Coord(q)
		odd := (c.X%2 != 0) || (c.Y%2 != 0)
		if odd && d.Degree(q) != 2 {
			t.Errorf("inserted qubit %v has degree %d, want 2", c, d.Degree(q))
		}
	}
	// Heavy architectures are sparser than their polygon counterparts.
	if d.AvgDegree() >= Square(2, 2).AvgDegree() {
		t.Error("heavy square should have lower average degree than square")
	}
}

func TestHeavyHexagonStructure(t *testing.T) {
	d := HeavyHexagon(3, 2)
	if d.MaxDegree() != 3 {
		t.Fatalf("max degree = %d, want 3", d.MaxDegree())
	}
	for q := 0; q < d.Len(); q++ {
		c := d.Coord(q)
		if (c.X%2 != 0 || c.Y%2 != 0) && d.Degree(q) > 2 {
			t.Errorf("inserted qubit %v has degree %d, want <= 2", c, d.Degree(q))
		}
	}
	if d.AvgDegree() >= Hexagon(3, 2).AvgDegree() {
		t.Error("heavy hexagon should be sparser than hexagon")
	}
}

func TestAllArchitecturesConnected(t *testing.T) {
	for _, k := range AllKinds() {
		d := ByKind(k, 3, 3)
		dist := d.Graph().BFSDistances(0, nil)
		for q, dd := range dist {
			if dd == -1 {
				t.Errorf("%v: qubit %d unreachable", k, q)
			}
		}
	}
}

func TestQubitAtRoundTrip(t *testing.T) {
	for _, k := range AllKinds() {
		d := ByKind(k, 2, 2)
		for q := 0; q < d.Len(); q++ {
			got, ok := d.QubitAt(d.Coord(q))
			if !ok || got != q {
				t.Fatalf("%v: QubitAt(Coord(%d)) = %d,%v", k, q, got, ok)
			}
		}
		if _, ok := d.QubitAt(grid.C(-1000, -1000)); ok {
			t.Errorf("%v: found qubit at absurd coordinate", k)
		}
	}
}

func TestQubitIdsFollowCoordinateOrder(t *testing.T) {
	for _, k := range AllKinds() {
		d := ByKind(k, 2, 2)
		for q := 1; q < d.Len(); q++ {
			if !d.Coord(q - 1).Less(d.Coord(q)) {
				t.Fatalf("%v: qubit ids not in coordinate order at %d", k, q)
			}
		}
	}
}

func TestHighDegreeQubits(t *testing.T) {
	d := Square(2, 2) // 3x3 lattice: center has degree 4
	four := d.HighDegreeQubits(4)
	if len(four) != 1 {
		t.Fatalf("degree-4 qubits = %d, want 1", len(four))
	}
	if c := d.Coord(four[0]); c != grid.C(1, 1) {
		t.Errorf("degree-4 qubit at %v, want (1,1)", c)
	}
	three := d.HighDegreeQubits(3)
	if len(three) != 5 { // center + 4 edge midpoints
		t.Errorf("degree>=3 qubits = %d, want 5", len(three))
	}
}

func TestQubitsIn(t *testing.T) {
	d := Square(3, 3)
	r := grid.Rect{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}
	qs := d.QubitsIn(r)
	if len(qs) != 4 {
		t.Fatalf("QubitsIn = %d qubits, want 4", len(qs))
	}
	for _, q := range qs {
		if !r.Contains(d.Coord(q)) {
			t.Errorf("qubit %d at %v outside %v", q, d.Coord(q), r)
		}
	}
}

func TestFromGraph(t *testing.T) {
	coords := []grid.Coord{grid.C(0, 0), grid.C(1, 0), grid.C(0, 1)}
	d, err := FromGraph("tri", coords, [][2]grid.Coord{
		{grid.C(0, 0), grid.C(1, 0)},
		{grid.C(0, 0), grid.C(0, 1)},
	})
	if err != nil {
		t.Fatalf("FromGraph: %v", err)
	}
	if d.Len() != 3 || d.Graph().EdgeCount() != 2 {
		t.Fatalf("custom device wrong shape: %v", d)
	}
	if _, err := FromGraph("dup", []grid.Coord{grid.C(0, 0), grid.C(0, 0)}, nil); err == nil {
		t.Error("duplicate coordinate accepted")
	}
	if _, err := FromGraph("bad", coords, [][2]grid.Coord{{grid.C(9, 9), grid.C(0, 0)}}); err == nil {
		t.Error("unknown coupling endpoint accepted")
	}
}

func TestASCIIRendersSomething(t *testing.T) {
	d := Square(2, 2)
	art := d.ASCII()
	if !strings.Contains(art, "4") {
		t.Errorf("ASCII missing degree-4 marker:\n%s", art)
	}
	if !strings.Contains(art, "-") || !strings.Contains(art, "|") {
		t.Errorf("ASCII missing couplings:\n%s", art)
	}
}

func TestByKindPanicsOnCustom(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ByKind(KindCustom) did not panic")
		}
	}()
	ByKind(KindCustom, 1, 1)
}

func TestTileValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-size tiling accepted")
		}
	}()
	Square(0, 3)
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindSquare: "square", KindHexagon: "hexagon", KindOctagon: "octagon",
		KindHeavySquare: "heavy-square", KindHeavyHexagon: "heavy-hexagon",
		KindCustom: "custom",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

// ParseKind inverts Kind.String over the parametric families.
func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range AllKinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	for _, name := range []string{"custom", "triangle", ""} {
		if _, err := ParseKind(name); err == nil {
			t.Errorf("ParseKind(%q) accepted", name)
		}
	}
}
