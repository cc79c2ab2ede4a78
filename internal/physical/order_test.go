package physical

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sqlfe"
)

// Grouped ORDER BY resolves by (table, column) identity: however the
// select item, the group key and the ORDER BY spell the column —
// qualified or not — the statement binds, both engines order by it, and
// they agree row for row (group rows are unique on the key, so the
// order is total).
func TestGroupedOrderByAnySpelling(t *testing.T) {
	snap := fixedCatalog(t).Snapshot()
	want := [][]string{{"NULL", "2"}, {"1", "3"}, {"2", "2"}, {"3", "1"}, {"4", "1"}}
	spellings := []string{"a", "t.a"}
	for _, item := range spellings {
		for _, key := range spellings {
			for _, order := range spellings {
				q := fmt.Sprintf("SELECT %s, count(*) FROM t GROUP BY %s ORDER BY %s", item, key, order)
				st, err := sqlfe.Parse(q)
				if err != nil {
					t.Fatal(err)
				}
				b, err := snap.Bind(st.(*sqlfe.Select))
				if err != nil {
					t.Errorf("%s: %v", q, err)
					continue
				}
				if b.OrderItem != 0 {
					t.Errorf("%s: ordered by item %d", q, b.OrderItem)
				}
				onMAL, err := malRows(snap, b, nil)
				if err != nil || !reflect.DeepEqual(onMAL, want) {
					t.Errorf("%s on MAL: %v %v, want %v", q, onMAL, err, want)
				}
				plan, fb := LowerBound(b)
				if plan == nil {
					t.Errorf("%s: not lowered: %v", q, fb)
					continue
				}
				onVector, err := vecRows(plan, snap, nil)
				if err != nil || !reflect.DeepEqual(onVector, want) {
					t.Errorf("%s on the vector path: %v %v, want %v", q, onVector, err, want)
				}
			}
		}
	}
	// Over a join the unqualified spelling means its first owner, and
	// an alias hides nothing: the key is found behind it.
	for _, q := range []string{
		"SELECT t.a AS k, sum(w) FROM t JOIN u ON t.a = u.a GROUP BY a ORDER BY t.a DESC",
		"SELECT a AS k, sum(w) FROM t JOIN u ON t.a = u.a GROUP BY t.a ORDER BY a DESC",
		"SELECT t.a, sum(w) FROM t JOIN u ON t.a = u.a GROUP BY t.a ORDER BY a DESC",
	} {
		st, err := sqlfe.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := snap.Bind(st.(*sqlfe.Select))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want := [][]string{{"4", "NULL"}, {"3", "500"}, {"2", "1000"}, {"1", "600"}}
		onMAL, err := malRows(snap, b, nil)
		if err != nil || !reflect.DeepEqual(onMAL, want) {
			t.Errorf("%s on MAL: %v %v, want %v", q, onMAL, err, want)
		}
		plan, fb := LowerBound(b)
		if plan == nil {
			t.Fatalf("%s: not lowered: %v", q, fb)
		}
		if onVector, err := vecRows(plan, snap, nil); err != nil || !reflect.DeepEqual(onVector, want) {
			t.Errorf("%s on the vector path: %v %v, want %v", q, onVector, err, want)
		}
	}
	// ORDER BY u.a is a different column from the key t.a.
	st, _ := sqlfe.Parse("SELECT t.a, sum(w) FROM t JOIN u ON t.a = u.a GROUP BY t.a ORDER BY u.a")
	if _, err := snap.Bind(st.(*sqlfe.Select)); err == nil || err.Error() != `sql: ORDER BY "u.a" must name an output column` {
		t.Fatalf("ORDER BY another table's column: %v", err)
	}
}

// LowerBound's only failures are routing reasons, and Lower has none
// at all for a statement that does not bind.
func TestLowerNeverReportsErrors(t *testing.T) {
	snap := fixedCatalog(t).Snapshot()
	for _, q := range corpus(t) {
		st, err := sqlfe.Parse(q)
		if err != nil {
			continue
		}
		sel, ok := st.(*sqlfe.Select)
		if !ok {
			continue
		}
		plan, fb := Lower(sel, snap)
		if _, err := snap.Bind(sel); err != nil {
			if plan != nil || fb != nil {
				t.Errorf("%s does not bind (%v) but Lower returned %v, %v", q, err, plan, fb)
			}
			continue
		}
		if (plan == nil) == (fb == nil) || (fb != nil && !routingReasons[fb.Code]) {
			t.Errorf("%s: Lower returned %v, %v", q, plan, fb)
		}
	}
}
