package physical

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/mal"
	"repro/internal/sqlfe"
	"repro/internal/vector"
)

// routingReasons are the only codes LowerBound may return.
var routingReasons = map[string]bool{
	ReasonTextColumn: true, ReasonExprInSelect: true, ReasonGroupKeyType: true,
	ReasonOrderKeyType: true, ReasonJoinKeyType: true,
}

// cellString renders one result cell for comparison: the nil sentinels
// are NULL on either engine, floats compare to nine digits (the vector
// path sums per worker) and -0 is 0.
func cellString(v any) string {
	switch x := v.(type) {
	case int64:
		if x == bat.NilInt {
			return "NULL"
		}
		return fmt.Sprint(x)
	case float64:
		if math.IsNaN(x) {
			return "NULL"
		}
		return fmt.Sprintf("%.9g", x+0)
	case string:
		if bat.IsNilStr(x) {
			return "NULL"
		}
		return fmt.Sprintf("%q", x)
	case nil:
		return "NULL"
	}
	return fmt.Sprint(v)
}

// malRows runs the bound statement's MAL program and renders its rows.
func malRows(snap *sqlfe.Snapshot, b *sqlfe.Bound, params []mal.Val) ([][]string, error) {
	vals, err := (&mal.Interp{Cat: snap, Params: params}).Run(b.CompileMAL())
	if err != nil {
		return nil, err
	}
	n, scalar := 0, true
	for _, v := range vals {
		if v.Kind == mal.KBAT {
			scalar = false
			n = max(n, v.B.Len())
		}
	}
	if scalar {
		n = 1
	}
	rows := make([][]string, n)
	for r := range rows {
		rows[r] = make([]string, len(vals))
		for c, v := range vals {
			switch v.Kind {
			case mal.KBAT:
				rows[r][c] = cellString(v.B.Value(r))
			case mal.KInt:
				rows[r][c] = cellString(v.I)
			case mal.KFloat:
				rows[r][c] = cellString(v.F)
			default:
				rows[r][c] = "NULL"
			}
		}
	}
	return rows, nil
}

// vecRows executes a plan and renders the rows it streams, LIMIT applied.
func vecRows(plan *Plan, snap *sqlfe.Snapshot, args []any) ([][]string, error) {
	res, _, err := plan.Execute(context.Background(), snap, args, Options{Workers: 2})
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for {
		b, err := res.Op.Next()
		if err != nil {
			res.Op.Close()
			return nil, err
		}
		if b == nil {
			break
		}
		b.ForEach(func(i int32) {
			row := make([]string, len(b.Cols))
			for c := range b.Cols {
				switch b.Cols[c].Kind {
				case vector.KindInt:
					row[c] = cellString(b.Cols[c].Ints[i])
				case vector.KindFloat:
					row[c] = cellString(b.Cols[c].Floats[i])
				}
			}
			rows = append(rows, row)
		})
	}
	if err := res.Op.Close(); err != nil {
		return nil, err
	}
	if res.Limit >= 0 && len(rows) > res.Limit {
		rows = rows[:res.Limit]
	}
	return rows, nil
}

// multiset counts rows by their rendering.
func multiset(rows [][]string) map[string]int {
	m := map[string]int{}
	for _, r := range rows {
		m[strings.Join(r, "|")]++
	}
	return m
}

// FuzzBindSelect holds the binder to its contract on arbitrary SELECT
// text over fixedCatalog, whose tombstones the vector scans filter and
// MAL subtracts: once Bind succeeds, the MAL program generates
// and runs without error, LowerBound returns a plan or one of the
// routing reasons, and a lowered statement's vector result equals
// MAL's under the doc.go result contract — a multiset, with ORDER BY
// fixing the sequence of sort-key values and LIMIT cutting it (WHICH
// tied or unordered rows survive a LIMIT is either engine's choice, so
// a limited result is held to the row count and to drawing its rows
// from the unlimited one).
func FuzzBindSelect(f *testing.F) {
	for _, q := range corpus(f) {
		f.Add(q)
	}
	snap := fixedCatalog(f).Snapshot()
	f.Fuzz(func(t *testing.T, src string) {
		st, err := sqlfe.Parse(src)
		if err != nil {
			return
		}
		sel, ok := st.(*sqlfe.Select)
		if !ok {
			return
		}
		b, err := snap.Bind(sel)
		if err != nil {
			if err.Error() == "" {
				t.Fatalf("%q: bind error with empty message", src)
			}
			return
		}
		args := make([]any, len(b.ParamTypes))
		params := make([]mal.Val, len(b.ParamTypes))
		for i, pt := range b.ParamTypes {
			switch pt {
			case sqlfe.TInt:
				args[i], params[i] = int64(2), mal.IntVal(2)
			case sqlfe.TFloat:
				args[i], params[i] = 1.5, mal.FloatVal(1.5)
			default:
				args[i], params[i] = "x", mal.StrVal("x")
			}
		}
		want, err := malRows(snap, b, params)
		if err != nil {
			t.Fatalf("%q: MAL failed after a successful bind: %v", src, err)
		}
		plan, fb := LowerBound(b)
		if plan == nil {
			if fb == nil || !routingReasons[fb.Code] {
				t.Fatalf("%q: LowerBound returned neither a plan nor a routing reason: %v", src, fb)
			}
			return
		}
		got, err := vecRows(plan, snap, args)
		if err != nil {
			t.Fatalf("%q: vector execution failed after a successful bind: %v", src, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: vector returned %d rows, MAL %d\nvector %v\nMAL    %v", src, len(got), len(want), got, want)
		}
		if b.Ordered && b.OrderItem >= 0 {
			for r := range got {
				if got[r][b.OrderItem] != want[r][b.OrderItem] {
					t.Fatalf("%q: sort key sequence differs at row %d\nvector %v\nMAL    %v", src, r, got, want)
				}
			}
		}
		if b.Limit < 0 {
			if !reflect.DeepEqual(multiset(got), multiset(want)) {
				t.Fatalf("%q: results differ as multisets\nvector %v\nMAL    %v", src, got, want)
			}
			return
		}
		unlimited := *b
		unlimited.Limit = -1
		all, err := malRows(snap, &unlimited, params)
		if err != nil {
			t.Fatalf("%q: MAL failed without the LIMIT: %v", src, err)
		}
		for name, rows := range map[string][][]string{"vector": got, "MAL": want} {
			full := multiset(all)
			for _, r := range rows {
				k := strings.Join(r, "|")
				if full[k]--; full[k] < 0 {
					t.Fatalf("%q: %s row %v is not in the unlimited result %v", src, name, r, all)
				}
			}
		}
	})
}
