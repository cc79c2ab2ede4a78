package sqlfe

import (
	"math"
	"slices"
	"testing"

	"repro/internal/bat"
)

// prune returns the zones of zm that survive `col op v` (iv for an INT
// column, fv for a FLOAT one).
func prune(zm *ZoneMap, op string, iv int64, fv float64) []int {
	keep := make([]bool, zm.Zones())
	for i := range keep {
		keep[i] = true
	}
	zm.Prune(keep, op, iv, fv)
	out := []int{}
	for z, k := range keep {
		if k {
			out = append(out, z)
		}
	}
	return out
}

// TestZoneMapIntBoundaries builds a 4-zone INT map — [0,1023],
// [1024,2047], an all-nil zone, and a short last zone holding a nil, the
// smallest non-nil value and 5000 — and prunes at every zone edge.
func TestZoneMapIntBoundaries(t *testing.T) {
	const minVal = bat.NilInt + 1
	vals := make([]int64, 3*ZoneRows+3)
	for i := 0; i < 2*ZoneRows; i++ {
		vals[i] = int64(i)
	}
	for i := 2 * ZoneRows; i < 3*ZoneRows; i++ {
		vals[i] = bat.NilInt
	}
	copy(vals[3*ZoneRows:], []int64{bat.NilInt, minVal, 5000})
	zm := buildZoneMap(bat.FromInts(vals))
	if zm.Zones() != 4 {
		t.Fatalf("zones = %d, want 4", zm.Zones())
	}
	for _, c := range []struct {
		op   string
		v    int64
		want []int
	}{
		// The short last zone spans [minVal,5000], so it survives whatever
		// lies in there; the edges below are those of zones 0 and 1.
		{"=", 0, []int{0, 3}},
		{"=", 1023, []int{0, 3}}, // a zone's max
		{"=", 1024, []int{1, 3}}, // the next zone's min
		{"=", 2048, []int{3}},
		{"=", 5000, []int{3}},
		{"=", 5001, []int{}},
		{"=", minVal, []int{3}},
		{"=", bat.NilInt, []int{0, 1, 2, 3}}, // nil constant: nothing is pruned
		{"<", 0, []int{3}},
		{"<", minVal, []int{}},
		{"<=", minVal, []int{3}},
		{"<", 1024, []int{0, 3}},
		{"<=", 1024, []int{0, 1, 3}},
		{">", 2047, []int{3}},
		{">=", 2047, []int{1, 3}},
		{">", 5000, []int{}},
		{">=", 5000, []int{3}},
		{"<>", 7, []int{0, 1, 3}}, // only an all-nil or constant zone could go
		{"isnull", 0, []int{2, 3}},
		{"isnotnull", 0, []int{0, 1, 3}},
	} {
		if got := prune(zm, c.op, c.v, 0); !slices.Equal(got, c.want) {
			t.Errorf("%s %d: zones %v, want %v", c.op, c.v, got, c.want)
		}
	}

	// <> prunes exactly the zones whose every non-nil value is the constant.
	konst := make([]int64, 2*ZoneRows)
	for i := range konst {
		konst[i] = 7
	}
	konst[ZoneRows+5] = 8
	konst[3] = bat.NilInt
	if got := prune(buildZoneMap(bat.FromInts(konst)), "<>", 7, 0); !slices.Equal(got, []int{1}) {
		t.Errorf("<> 7 over a constant zone: zones %v, want [1]", got)
	}

	// An empty column has no zones, and pruning it is a no-op.
	empty := buildZoneMap(bat.New(bat.TypeInt))
	if empty.Zones() != 0 || len(prune(empty, "=", 1, 0)) != 0 {
		t.Errorf("empty column: %d zones", empty.Zones())
	}
	if buildZoneMap(bat.New(bat.TypeStr)) != nil {
		t.Error("TEXT column got a zone map")
	}
}

// TestZoneMapFloatNaN: NaN is the FLOAT nil — it never widens a zone's
// min/max and never satisfies a comparison — and ±Inf are ordinary
// values.
func TestZoneMapFloatNaN(t *testing.T) {
	nan := bat.NilFloat()
	vals := make([]float64, 2*ZoneRows+2)
	for i := 0; i < ZoneRows; i++ {
		vals[i] = float64(i) / 2 // [0, 511.5]
	}
	vals[17] = nan
	for i := ZoneRows; i < 2*ZoneRows; i++ {
		vals[i] = nan
	}
	vals[2*ZoneRows], vals[2*ZoneRows+1] = math.Inf(-1), math.Inf(1)
	zm := buildZoneMap(bat.FromFloats(vals))
	for _, c := range []struct {
		op   string
		v    float64
		want []int
	}{
		{"=", 511.5, []int{0, 2}},
		{"=", 511.75, []int{2}},
		{">", 511.5, []int{2}},
		{">=", 511.5, []int{0, 2}},
		{"<", 0, []int{2}},
		{"<=", 0, []int{0, 2}},
		{"<>", 3, []int{0, 2}},
		{"=", nan, []int{0, 1, 2}}, // nil constant: nothing is pruned
		{"isnull", 0, []int{0, 1}},
		{"isnotnull", 0, []int{0, 2}},
	} {
		if got := prune(zm, c.op, 0, c.v); !slices.Equal(got, c.want) {
			t.Errorf("%s %v: zones %v, want %v", c.op, c.v, got, c.want)
		}
	}
}

// TestZoneMapsFollowMain: a zone map is born with its column — none of
// the rows appended since, all of them after a vacuum rebuilds the
// column — and a snapshot shares it.
func TestZoneMapsFollowMain(t *testing.T) {
	db := NewDB()
	if _, err := db.Exec("CREATE TABLE t (a INT, s TEXT, f FLOAT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Exec("INSERT INTO t VALUES (1, 'x', 0.5), (2, 'y', NULL)"); err != nil {
			t.Fatal(err)
		}
	}
	tbl, _ := db.Table("t")
	if tbl.ZonedRows() != 0 || tbl.ZoneMap(0).Zones() != 0 {
		t.Fatalf("appended rows are zone-mapped: zoned %d, zones %d", tbl.ZonedRows(), tbl.ZoneMap(0).Zones())
	}
	if _, err := db.Exec("DELETE FROM t WHERE a = 1"); err != nil {
		t.Fatal(err)
	}
	if n, err := db.Vacuum(); err != nil || n != 1 {
		t.Fatalf("vacuum: %d, %v", n, err)
	}
	if tbl.ZonedRows() != 3 || tbl.ZoneMap(0).Zones() != 1 || tbl.ZoneMap(1) != nil || tbl.ZoneMap(2).Zones() != 1 {
		t.Fatalf("after vacuum: zoned %d, maps %v %v %v", tbl.ZonedRows(), tbl.ZoneMap(0), tbl.ZoneMap(1), tbl.ZoneMap(2))
	}
	if got := prune(tbl.ZoneMap(0), "=", 1, 0); len(got) != 0 {
		t.Errorf("a = 1 after its rows were vacuumed away: zones %v", got)
	}
	if got := prune(tbl.ZoneMap(2), "isnotnull", 0, 0); len(got) != 0 {
		t.Errorf("f IS NOT NULL over an all-nil zone: zones %v", got)
	}
	st, err := db.Snapshot().Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if st.ZoneMap(0) != tbl.ZoneMap(0) {
		t.Error("snapshot does not share the table's zone map")
	}
}
