package sqlfe

// ColType is a SQL column type.
type ColType uint8

// SQL column types.
const (
	TInt ColType = iota
	TFloat
	TText
)

// String returns the SQL spelling.
func (t ColType) String() string {
	switch t {
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TText:
		return "TEXT"
	}
	return "?"
}

// Stmt is any parsed statement.
type Stmt interface{ stmt() }

// CreateTable is CREATE TABLE name (col type, ...).
type CreateTable struct {
	Name  string
	Cols  []string
	Types []ColType
}

func (*CreateTable) stmt() {}

// DropTable is DROP TABLE name.
type DropTable struct{ Name string }

func (*DropTable) stmt() {}

// Insert is INSERT INTO name VALUES (...), (...).
type Insert struct {
	Table string
	Rows  [][]Lit
}

func (*Insert) stmt() {}

// Delete is DELETE FROM name [WHERE preds].
type Delete struct {
	Table string
	Where []Pred
}

func (*Delete) stmt() {}

// Update is UPDATE name SET col = lit [, ...] [WHERE preds].
type Update struct {
	Table string
	Set   map[string]Lit
	Where []Pred
}

func (*Update) stmt() {}

// Select is the query statement.
type Select struct {
	Items   []SelItem
	From    string
	Joins   []*JoinClause // one per JOIN clause, in textual order
	Where   []Pred
	GroupBy []string // group key column names, nil if none
	OrderBy string   // column or alias, "" if none
	Desc    bool
	Limit   int // -1 if none
}

// Grouped reports whether the statement has a GROUP BY clause.
func (s *Select) Grouped() bool { return len(s.GroupBy) > 0 }

func (*Select) stmt() {}

// JoinClause is one JOIN table ON left = right step. LCol must resolve
// to a table already in scope (FROM or an earlier JOIN); RCol to any
// table in scope once this one joins — the compiler normalizes the
// orientation, so `ON a.x = c.y` and `ON c.y = a.x` are equivalent.
type JoinClause struct {
	Table string
	LCol  string // column of a prior table
	RCol  string // column of the joined table
}

// SelItem is one select-list item: an expression, optionally wrapped in an
// aggregate, optionally aliased. Star is the * item.
type SelItem struct {
	Star  bool
	Agg   AggFn
	Expr  Expr // nil for count(*)
	Alias string
}

// AggFn is an aggregate function, from the closed set the parser knows;
// the zero value marks a plain (non-aggregated) item.
type AggFn uint8

const (
	AggNone AggFn = iota
	AggSum
	AggCount
	AggMin
	AggMax
	AggAvg
)

var aggNames = [...]string{AggNone: "", AggSum: "sum", AggCount: "count", AggMin: "min", AggMax: "max", AggAvg: "avg"}

// String is the function's lower-case SQL name, "" for AggNone.
func (a AggFn) String() string { return aggNames[a] }

// Expr is a scalar expression over columns and literals.
type Expr interface{ expr() }

// ColRef names a column (possibly qualified table.col).
type ColRef struct{ Name string }

func (ColRef) expr() {}

// Lit is a literal value. Null marks the NULL literal, which carries no
// value; Kind is then meaningless. Param > 0 marks a ? placeholder (the
// 1-based ordinal of the statement's bind slot); its Kind and value are
// meaningless until bound.
type Lit struct {
	Kind  ColType
	I     int64
	F     float64
	S     string
	Null  bool
	Param int
}

func (Lit) expr() {}

// BinExpr is arithmetic: l op r with op in + - * .
type BinExpr struct {
	Op   byte // '+', '-', '*'
	L, R Expr
}

func (BinExpr) expr() {}

// Pred is one conjunct of the WHERE clause: col op lit, or a nil test.
// The nil tests ("isnull", "isnotnull") carry no comparison value.
type Pred struct {
	Col string
	Op  string // "=", "<>", "<", "<=", ">", ">=", "isnull", "isnotnull"
	Val Lit
}

// IsNilTest reports whether the predicate is IS NULL / IS NOT NULL.
func (p Pred) IsNilTest() bool { return p.Op == "isnull" || p.Op == "isnotnull" }
