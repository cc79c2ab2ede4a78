package physical

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/memgov"
	"repro/internal/radix"
	"repro/internal/sqlfe"
)

// A semi step holds no table: its build charges the keys and its
// bitmap filter, nothing more. The same build probed, for a column read
// above, charges its keys and payload, then its table, then the bitmap.
// A payload-free build over a repeated key measures its bitmap first;
// when its table is then denied, it hands back everything, the bitmap
// included.
func TestSemiJoinStepHoldsNoTable(t *testing.T) {
	const dims = 100
	var fact, dim strings.Builder
	for i := 0; i < 2400; i++ {
		fmt.Fprintf(&fact, ", (%d, %d)", i%(dims+20), i)
	}
	for k := 0; k < dims; k++ {
		fmt.Fprintf(&dim, ", (%d, %d)", k, k%7)
	}
	db := sqlfe.NewDB()
	for _, s := range []string{"CREATE TABLE f (k INT, v INT)", "CREATE TABLE d (k INT, p INT)",
		"CREATE TABLE dd (k INT, p INT)", "INSERT INTO f VALUES " + fact.String()[2:],
		"INSERT INTO d VALUES " + dim.String()[2:], "INSERT INTO dd VALUES " + dim.String()[2:] + ", (7, 0)"} { // dd repeats a key
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.Snapshot()
	bitmap := int64(8 * ((dims + 63) / 64))
	lower := func(q string) *Plan {
		st, err := sqlfe.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := snap.Bind(st.(*sqlfe.Select))
		if err != nil {
			t.Fatal(err)
		}
		plan, fb := LowerBound(b)
		if plan == nil {
			t.Fatalf("%s: not lowered: %v", q, fb)
		}
		return plan
	}
	for _, tc := range []struct {
		q    string
		semi bool
		want int64 // the reservation's high water
	}{
		{"SELECT f.v FROM f JOIN d ON f.k = d.k", true, 8*dims + bitmap},
		{"SELECT f.v, d.p FROM f JOIN d ON f.k = d.k", false, 16*dims + int64(radix.TableBytes(dims)) + bitmap},
	} {
		res, stats := memgov.New(0, memgov.Reject), &ExecStats{}
		out, _, err := lower(tc.q).Execute(context.Background(), snap, nil, Options{Workers: 1, Gov: res, Stats: stats})
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for {
			bt, err := out.Op.Next()
			if err != nil {
				t.Fatal(err)
			}
			if bt == nil {
				break
			}
			rows += bt.Rows()
		}
		out.Op.Close()
		if len(stats.Joins) != 1 || stats.Joins[0].Semi != tc.semi || rows != 2400*dims/(dims+20) {
			t.Fatalf("%s: %d rows, steps %+v, want one step with semi %v", tc.q, rows, stats.Joins, tc.semi)
		}
		if got := res.HighWater(); got != tc.want {
			t.Errorf("%s: reservation high water %d B, want %d", tc.q, got, tc.want)
		}
	}
	res := memgov.New(8*(dims+1)+bitmap, memgov.Reject)
	q := "SELECT f.v FROM f JOIN dd ON f.k = dd.k"
	if _, _, err := lower(q).Execute(context.Background(), snap, nil, Options{Workers: 1, Gov: res}); !errors.Is(err, memgov.ErrExceeded) {
		t.Fatalf("%s: %v, want the table denied", q, err)
	}
	if res.HighWater() != 8*(dims+1)+bitmap || res.Used() != 0 {
		t.Fatalf("%s: held %d B at most, %d B after the denial; want %d, then 0", q, res.HighWater(), res.Used(), 8*(dims+1)+bitmap)
	}
}
