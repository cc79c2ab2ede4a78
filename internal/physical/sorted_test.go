package physical

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/sqlfe"
	"repro/internal/vector"
)

// sortedCatalog builds s(k INT, v INT, w INT) over n rows: k is sorted
// with runs of duplicates and gaps between them, after a nil prefix;
// v is unsorted; w is unsorted inside each zone but zone-prunable (zone
// z holds 10z and 10z+1). The rows are saved and reloaded, so they are
// zone-mapped.
func sortedCatalog(t *testing.T, n int) *sqlfe.DB {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("INSERT INTO s VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		k := fmt.Sprint(3 * (i / 7))
		if i < 5 {
			k = "NULL"
		}
		fmt.Fprintf(&sb, "(%s, %d, %d)", k, i%13, i/sqlfe.ZoneRows*10+i%2)
	}
	db := sqlfe.NewDB()
	for _, s := range []string{"CREATE TABLE s (k INT, v INT, w INT)", sb.String()} {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	db, err := sqlfe.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// drainRows runs op and returns its rows, cell by cell.
func drainRows(t *testing.T, op vector.Operator) [][3]int64 {
	t.Helper()
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	var out [][3]int64
	for {
		b, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return out
		}
		b.ForEach(func(i int32) {
			out = append(out, [3]int64{b.Cols[0].Ints[i], b.Cols[1].Ints[i], b.Cols[2].Ints[i]})
		})
	}
}

// TestSortedRangeMatchesFilter is the property behind sorted ranges: a
// comparison on a sorted INT column, turned into a binary-searched row
// range by bindLeaf, selects exactly the rows vector.Filter selects
// with the same predicate over the whole table — for every operator,
// at constants below, on, between, on the duplicates of and above the
// column's values, past a nil prefix, alone and beside a zone-pruned
// predicate, with tombstones, after appends that keep the column
// sorted, and after one that breaks it (no search then).
func TestSortedRangeMatchesFilter(t *testing.T) {
	const n = 3000
	db := sortedCatalog(t, n)
	scan := &ScanNode{Table: "s", Cols: []int{0, 1, 2}, Types: []sqlfe.ColType{sqlfe.TInt, sqlfe.TInt, sqlfe.TInt}}
	maxK := int64(3 * ((n - 1) / 7))
	consts := []int64{-5, 0, 1, 3, 4, 300, 301, maxK - 1, maxK, maxK + 1, maxK + 3, maxK + 100}
	ops := []string{"=", "<", "<=", ">", ">=", "<>"}
	lit := func(v int64) sqlfe.Lit { return sqlfe.Lit{Kind: sqlfe.TInt, I: v} }
	for _, stage := range []struct {
		name   string
		stmt   string
		sorted bool
	}{
		{"loaded", "", true},
		{"appended in order", fmt.Sprintf("INSERT INTO s VALUES (%d, 1, 1), (%d, 2, 0), (%d, 3, 1)", maxK, maxK+3, maxK+3), true},
		{"tombstoned", "DELETE FROM s WHERE v = 3", true},
		{"appended out of order", "INSERT INTO s VALUES (4, 4, 4)", false},
	} {
		if stage.stmt != "" {
			if _, err := db.Exec(stage.stmt); err != nil {
				t.Fatal(err)
			}
		}
		snap := db.Snapshot()
		full, err := bind(scan, snap)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, op := range ops {
			for _, c := range consts {
				for _, extra := range [][]Pred{nil, {{Col: 2, Op: "=", Type: sqlfe.TInt, Lit: lit(10)}}, {{Col: 0, Op: ">=", Type: sqlfe.TInt, Lit: lit(c - 40)}}} {
					preds := append([]Pred{{Col: 0, Op: op, Type: sqlfe.TInt, Lit: lit(c)}}, extra...)
					stats := &ExecStats{}
					bs, vpreds, err := bindLeaf(scan, preds, snap, nil, stats)
					if err != nil {
						t.Fatal(err)
					}
					got := drainRows(t, filtered(vector.NewScan(bs.src, 0), vpreds, nil))
					var ref []vector.Pred
					for _, p := range preds {
						vop, _ := predOp(p.Op, p.Type, full.noNil[p.Col])
						ref = append(ref, vector.Pred{ColIdx: p.Col, Op: vop, IntVal: p.Lit.I})
					}
					want := drainRows(t, filtered(vector.NewScan(full.src, 0), ref, nil))
					where := fmt.Sprintf("%s: k %s %d %v", stage.name, op, c, extra)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: %d rows, want %d:\n got %v\nwant %v", where, len(got), len(want), got, want)
					}
					st := stats.Scans[0]
					searched := stage.sorted && (op != "<>" || len(extra) > 0 && extra[0].Col == 0)
					if searched != (st.Search == "s.k") {
						t.Fatalf("%s: searched on %q, want a search %v", where, st.Search, searched)
					}
					if searched && extra == nil { // op is not <>
						if len(vpreds) != 0 {
							t.Fatalf("%s: the searched predicate stayed in the filter: %v", where, vpreds)
						}
						if st.Rows != st.Hi-st.Lo {
							t.Fatalf("%s: scan visits %d rows, want the range [%d,%d)", where, st.Rows, st.Lo, st.Hi)
						}
					}
					checked += len(want)
				}
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no comparison selected a row", stage.name)
		}
	}
	bs, err := bind(scan, db.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	bs.sorted[0] = true
	if _, _, ok := bs.search(0, "<", bat.NilInt); ok {
		t.Fatal("a nil-sentinel constant searched; the scan's primitives define what it matches")
	}
}

// TestSortedRangeZonesAreTheRangesZones: the zone count of a searched
// scan is the zones its rows lie in, and clipping keeps only what both
// the search and the zone maps leave.
func TestSortedRangeZonesAreTheRangesZones(t *testing.T) {
	const z = sqlfe.ZoneRows
	rr := func(p ...int) []vector.RowRange {
		var out []vector.RowRange
		for i := 0; i < len(p); i += 2 {
			out = append(out, vector.RowRange{Lo: p[i], Hi: p[i+1]})
		}
		return out
	}
	for _, c := range []struct {
		ranges []vector.RowRange
		mapped int
		zones  int
	}{
		{rr(5, 6), 3 * z, 1},
		{rr(z-1, z+1), 3 * z, 2},
		{rr(0, z, 2*z, 2*z+4), 3 * z, 2},
		{rr(3, 9, 10, 20), 3 * z, 1},
		{rr(2*z+5, 4*z), 3 * z, 1},
		{rr(3*z, 3*z+7), 3 * z, 0},
		{nil, 3 * z, 0},
	} {
		if got := zonesIn(c.ranges, c.mapped); got != c.zones {
			t.Errorf("zonesIn(%v, %d) = %d, want %d", c.ranges, c.mapped, got, c.zones)
		}
	}
	if got, want := clip(rr(0, z, 2*z, 3*z), z/2, 2*z+1), rr(z/2, z, 2*z, 2*z+1); !reflect.DeepEqual(got, want) {
		t.Errorf("clip = %v, want %v", got, want)
	}
	if got := clip(rr(0, z), z, 2*z); len(got) != 0 {
		t.Errorf("clip outside every range = %v, want none", got)
	}
}
