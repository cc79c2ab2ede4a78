package sqlfe

import (
	"reflect"
	"testing"
)

func bindDB(t *testing.T) *DB {
	db := NewDB()
	mustExec(t, db, "CREATE TABLE t (a INT, b INT, f FLOAT, s TEXT)")
	mustExec(t, db, "CREATE TABLE u (a INT, w INT, g FLOAT, s TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 2, 1.5, 'x'), (2, 3, NULL, 'y'), (1, NULL, 0.0, NULL), (3, 4, -0.0, 'x')")
	mustExec(t, db, "INSERT INTO u VALUES (1, 10, 0.5, 'x'), (2, 20, 1.5, 'q')")
	return db
}

// TestBindErrors pins every rule of the binder to the message the MAL
// compiler reported for it before binding was single-sourced (the last
// case is the one rule added since: it used to panic the interpreter).
func TestBindErrors(t *testing.T) {
	snap := bindDB(t).Snapshot()
	param := func(ord int) Lit { return Lit{Param: ord} }
	star := []SelItem{{Star: true}}
	cases := []struct {
		name string
		sql  string  // parsed, unless sel is set
		sel  *Select // hand-built: shapes the parser cannot produce
		want string
	}{
		{name: "unknown table", sql: "SELECT a FROM nosuch", want: `sql: unknown table "nosuch"`},
		{name: "unknown join table", sql: "SELECT t.a FROM t JOIN nosuch ON t.a = nosuch.a", want: `sql: unknown table "nosuch"`},
		{name: "unknown column", sql: "SELECT nosuch FROM t", want: `sql: unknown column "nosuch"`},
		{name: "unknown qualified column", sql: "SELECT t.nosuch FROM t", want: `sql: no column "nosuch" in table "t"`},
		{name: "table not in scope", sql: "SELECT u.a FROM t", want: `sql: unknown table "u" in "u.a"`},
		{name: "unknown WHERE column", sql: "SELECT a FROM t WHERE nosuch = 1", want: `sql: unknown column "nosuch"`},
		{name: "table twice", sql: "SELECT t.a FROM t JOIN t ON t.a = t.a", want: `sql: table "t" appears twice in FROM/JOIN (self-joins are not supported)`},
		{name: "ON not pairing the new table", sql: "SELECT t.a FROM t JOIN u ON t.a = t.b", want: `sql: JOIN u ON must compare a column of "u" with a column of a prior table`},
		{name: "ON unknown table", sql: "SELECT t.a FROM t JOIN u ON t.a = z.a", want: `sql: unknown table "z" in join condition "z.a"`},
		{name: "ON unknown column", sql: "SELECT t.a FROM t JOIN u ON t.a = nosuch", want: `sql: unknown column "nosuch" in join condition`},
		{name: "ON type mismatch", sql: "SELECT t.a FROM t JOIN u ON t.a = u.g", want: `sql: join ON compares INT with FLOAT`},
		{name: "FLOAT join key", sql: "SELECT t.a FROM t JOIN u ON t.f = u.g", want: `sql: JOIN on FLOAT keys is not supported`},
		{name: "NULL comparison", sql: "SELECT a FROM t WHERE a = NULL", want: `sql: comparison with NULL is always unknown; use "a" IS [NOT] NULL`},
		{name: "INT literal mismatch", sql: "SELECT a FROM t WHERE a = 1.5", want: `sql: comparing int column "a" with FLOAT`},
		{name: "FLOAT literal mismatch", sql: "SELECT a FROM t WHERE f = 'x'", want: `sql: comparing float column "f" with TEXT`},
		{name: "TEXT literal mismatch", sql: "SELECT a FROM t WHERE t.s = 1", want: `sql: comparing text column "t.s" with INT`},
		{name: "mixed aggregate and plain", sql: "SELECT count(*), a FROM t", want: `sql: mixing aggregates and plain columns requires GROUP BY`},
		{name: "plain item not a group key", sql: "SELECT a, b, count(*) FROM t GROUP BY a", want: `sql: column "b" not in GROUP BY`},
		{name: "star item not a group key", sql: "SELECT * FROM t GROUP BY a", want: `sql: column "t.b" not in GROUP BY`},
		{name: "expression in a grouped query", sql: "SELECT a + 1, count(*) FROM t GROUP BY a", want: `sql: non-aggregate expression in GROUP BY query`},
		{name: "non-INT key in multi-key GROUP BY", sql: "SELECT a, count(*) FROM t GROUP BY a, f", want: `sql: GROUP BY key "f" must be INT when grouping by multiple columns`},
		{name: "grouped ORDER BY not an output column", sql: "SELECT a, count(*) FROM t GROUP BY a ORDER BY b", want: `sql: ORDER BY "b" must name an output column`},
		{name: "grouped ORDER BY unknown", sql: "SELECT a, count(*) FROM t GROUP BY a ORDER BY nosuch", want: `sql: ORDER BY "nosuch" must name an output column`},
		{name: "plain ORDER BY unknown", sql: "SELECT a FROM t ORDER BY nosuch", want: `sql: unknown column "nosuch"`},
		{name: "placeholder in the select list", sql: "SELECT ? FROM t", want: `sql: parameter ?1: SELECT placeholders are only supported as WHERE comparison values`},
		{name: "placeholder in arithmetic", sql: "SELECT sum(a + ?) FROM t", want: `sql: parameter ?1: SELECT placeholders are only supported as WHERE comparison values`},
		{name: "placeholder never typed", want: `sql: parameter ?1: SELECT placeholders are only supported as WHERE comparison values`,
			sel: &Select{Items: star, From: "t", Limit: -1, Where: []Pred{{Col: "a", Op: "=", Val: param(2)}}}},
		{name: "one placeholder at two types", want: `sql: parameter ?1 used as both INT and TEXT`,
			sel: &Select{Items: star, From: "t", Limit: -1, Where: []Pred{{Col: "a", Op: "=", Val: param(1)}, {Col: "s", Op: "=", Val: param(1)}}}},
		{name: "bad comparison operator", want: `sql: bad operator "~"`,
			sel: &Select{Items: star, From: "t", Limit: -1, Where: []Pred{{Col: "a", Op: "~", Val: Lit{Kind: TInt}}}}},
		{name: "arithmetic on a TEXT column", sql: "SELECT sum(s + a) FROM t", want: `sql: arithmetic on text column`},
		{name: "arithmetic on a TEXT operand", sql: "SELECT s + 1 FROM t", want: `sql: arithmetic on text operand`},
		{name: "arithmetic with a TEXT literal", sql: "SELECT a + 'x' FROM t", want: `sql: arithmetic on text operand`},
		{name: "NULL in arithmetic", sql: "SELECT a + NULL FROM t", want: `sql: NULL literals are only supported in INSERT/UPDATE values`},
		{name: "bare literal item", sql: "SELECT 1 FROM t", want: `sql: bare literals in the select list are not supported`},
		{name: "literal-only arithmetic", sql: "SELECT 1 + 2 FROM t", want: `sql: bare literals in the select list are not supported`},
		{name: "aggregate over TEXT", sql: "SELECT min(s) FROM t", want: `sql: min over a text column is not supported`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sel := tc.sel
			if sel == nil {
				st, err := Parse(tc.sql)
				if err != nil {
					t.Fatal(err)
				}
				sel = st.(*Select)
			}
			b, err := snap.Bind(sel)
			if err == nil {
				t.Fatalf("bound without error: %+v", b)
			}
			if err.Error() != tc.want {
				t.Fatalf("error\n got %s\nwant %s", err, tc.want)
			}
			// The thin entry point reports the binder's error unchanged.
			if _, _, cerr := snap.CompileSelectBound(sel); cerr == nil || cerr.Error() != tc.want {
				t.Fatalf("CompileSelectBound: %v", cerr)
			}
		})
	}
}

// The first error in binding order wins: tables, then WHERE left to
// right, then JOINs, then the select list, then ORDER BY.
func TestBindErrorOrder(t *testing.T) {
	snap := bindDB(t).Snapshot()
	for _, tc := range []struct{ sql, want string }{
		{"SELECT nosuch FROM t JOIN u ON t.a = u.g WHERE f = 'x' AND a = NULL", `sql: comparing float column "f" with TEXT`},
		{"SELECT nosuch FROM t JOIN u ON t.a = u.g", `sql: join ON compares INT with FLOAT`},
		{"SELECT nosuch FROM t ORDER BY alsonot", `sql: unknown column "nosuch"`},
		{"SELECT sum(nosuch), a FROM t", `sql: unknown column "nosuch"`},
		{"SELECT a, sum(nosuch) FROM t", `sql: mixing aggregates and plain columns requires GROUP BY`},
		{"SELECT b, count(*) FROM t GROUP BY a, nosuch", `sql: unknown column "nosuch"`},
	} {
		st, err := Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := snap.Bind(st.(*Select)); err == nil || err.Error() != tc.want {
			t.Errorf("%s:\n got %v\nwant %s", tc.sql, err, tc.want)
		}
	}
}

// What a successful Bind hands the back-ends.
func TestBindResolves(t *testing.T) {
	snap := bindDB(t).Snapshot()
	bind := func(sql string) *Bound {
		t.Helper()
		st, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		b, err := snap.Bind(st.(*Select))
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return b
	}

	// Star expansion, labels, unqualified names to the first owner, the
	// ON pair oriented (prior, new) however it is written, an INT literal
	// widened on a FLOAT column, placeholder types by ordinal.
	b := bind("SELECT *, w AS ww, t.a FROM t JOIN u ON u.a = t.a WHERE f > 1 AND u.s = ? AND b < ?")
	if want := []string{"a", "b", "f", "s", "a", "w", "g", "s", "ww", "t.a"}; !reflect.DeepEqual(b.Names, want) {
		t.Fatalf("names %v, want %v", b.Names, want)
	}
	if len(b.Items) != 10 || b.Shape != ShapePlain || len(b.Tables) != 2 {
		t.Fatalf("items %d shape %v tables %d", len(b.Items), b.Shape, len(b.Tables))
	}
	if want := (BoundJoin{Prior: ColID{0, 0, TInt}, New: ColID{1, 0, TInt}}); b.Joins[0] != want {
		t.Fatalf("join %+v, want %+v", b.Joins[0], want)
	}
	if got := b.Where[0]; got.Col != (ColID{0, 2, TFloat}) || got.Val != (Lit{Kind: TFloat, F: 1}) {
		t.Fatalf("widened literal: %+v", got)
	}
	if got := b.Where[1].Col; got != (ColID{1, 3, TText}) {
		t.Fatalf("u.s resolved to %+v", got)
	}
	if want := []ColType{TText, TInt}; !reflect.DeepEqual(b.ParamTypes, want) {
		t.Fatalf("param types %v, want %v", b.ParamTypes, want)
	}
	if got := b.Items[9].Expr; got.Op != ExprCol || got.Col != (ColID{0, 0, TInt}) {
		t.Fatalf("t.a bound to %+v", got)
	}

	// Arithmetic normal form: lit - col over INT is col * -1 + lit; an
	// INT operand under a FLOAT node keeps its type for the evaluator to
	// convert.
	e := bind("SELECT sum(10 - a), sum(a * f - 2) FROM t").Items
	if got := e[0].Expr; got.Op != ExprAddConst || got.I != 10 || got.L.Op != ExprMulConst || got.L.I != -1 || got.Type != TInt {
		t.Fatalf("10 - a bound to %+v / %+v", got, got.L)
	}
	if got := e[1].Expr; got.Op != ExprAddConst || got.F != -2 || got.Type != TFloat || got.L.Op != ExprMul || got.L.Type != TFloat || got.L.L.Type != TInt {
		t.Fatalf("a * f - 2 bound to %+v / %+v", got, got.L)
	}

	// ORDER BY: a label (the leftmost carrying it), else a projected
	// column reference as spelled, else an unprojected column; over a
	// global aggregate it stays unresolved.
	if b := bind("SELECT a AS k, b AS k FROM t ORDER BY k"); b.OrderItem != 0 {
		t.Fatalf("duplicate alias ordered by item %d", b.OrderItem)
	}
	if b := bind("SELECT a AS x, b FROM t ORDER BY a"); b.OrderItem != 0 {
		t.Fatalf("aliased column ordered by item %d", b.OrderItem)
	}
	if b := bind("SELECT a FROM t ORDER BY b DESC LIMIT 3"); b.OrderItem != -1 || b.OrderCol != (ColID{0, 1, TInt}) || !b.Desc || b.Limit != 3 {
		t.Fatalf("unprojected key: %+v", b)
	}
	if b := bind("SELECT sum(a) AS total FROM t ORDER BY nosuch"); !b.Ordered || b.OrderItem != -1 || b.Shape != ShapeGlobalAgg {
		t.Fatalf("global aggregate ORDER BY: %+v", b)
	}

	// Grouped: plain items name their key; ORDER BY finds the key's item
	// by column identity.
	g := bind("SELECT t.b, a, count(*) FROM t GROUP BY a, t.b ORDER BY b")
	if g.Shape != ShapeGrouped || g.Items[0].GroupKey != 1 || g.Items[1].GroupKey != 0 || g.OrderItem != 0 {
		t.Fatalf("grouped: %+v items %+v", g, g.Items)
	}
}

// DELETE and UPDATE predicates bind through Snapshot.Bind, so they
// fail with the SELECT's messages.
func TestDMLPredicatesBindLikeSelect(t *testing.T) {
	db := bindDB(t)
	for _, tc := range []struct{ sql, want string }{
		{"DELETE FROM t WHERE a = 1.5", `sql: comparing int column "a" with FLOAT`},
		{"DELETE FROM t WHERE nosuch = 1", `sql: unknown column "nosuch"`},
		{"UPDATE t SET b = 1 WHERE s = NULL", `sql: comparison with NULL is always unknown; use "s" IS [NOT] NULL`},
		{"UPDATE t SET b = 1 WHERE u.a = 1", `sql: unknown table "u" in "u.a"`},
	} {
		if _, err := db.Exec(tc.sql); err == nil || err.Error() != tc.want {
			t.Errorf("%s:\n got %v\nwant %s", tc.sql, err, tc.want)
		}
	}
	if r := mustExec(t, db, "DELETE FROM t WHERE f >= 0 AND s IS NOT NULL"); r.Affected != 2 {
		t.Fatalf("deleted %d rows, want 2", r.Affected)
	}
}

// A lone FLOAT group key groups by value on MAL: NULLs are one group,
// -0 and 0 another.
func TestGroupByFloatKey(t *testing.T) {
	db := bindDB(t)
	r := mustExec(t, db, "SELECT f, count(*) AS n FROM t GROUP BY f ORDER BY n DESC")
	if len(r.Rows) != 3 || r.Rows[0][1] != int64(2) || r.Rows[0][0] != 0.0 {
		t.Fatalf("rows = %v", r.Rows)
	}
	nulls := 0
	for _, row := range r.Rows {
		if row[0] == nil {
			nulls++
		}
	}
	if nulls != 1 {
		t.Fatalf("want one NULL group, rows = %v", r.Rows)
	}
}
