package sqlfe

import (
	"fmt"
	"strconv"
)

// Parse parses one SQL statement (a trailing semicolon is allowed).
func Parse(src string) (Stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, fmt.Errorf("sql: trailing input at %q", p.cur().text)
	}
	return st, nil
}

type parser struct {
	toks    []token
	pos     int
	nparams int // ? placeholders seen so far; ordinals are lexical
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) (token, error) {
	t := p.cur()
	if !p.at(kind, text) {
		return t, fmt.Errorf("sql: expected %q, got %q", text, t.text)
	}
	p.pos++
	return t, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	switch {
	case p.at(tokKeyword, "SELECT"):
		return p.parseSelect()
	case p.at(tokKeyword, "CREATE"):
		return p.parseCreate()
	case p.at(tokKeyword, "DROP"):
		return p.parseDrop()
	case p.at(tokKeyword, "INSERT"):
		return p.parseInsert()
	case p.at(tokKeyword, "DELETE"):
		return p.parseDelete()
	case p.at(tokKeyword, "UPDATE"):
		return p.parseUpdate()
	}
	return nil, fmt.Errorf("sql: unexpected %q", p.cur().text)
}

func (p *parser) parseCreate() (Stmt, error) {
	p.pos++ // CREATE
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name.text}
	for {
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		var typ ColType
		switch {
		case p.accept(tokKeyword, "INT"):
			typ = TInt
		case p.accept(tokKeyword, "FLOAT"):
			typ = TFloat
		case p.accept(tokKeyword, "TEXT"):
			typ = TText
		default:
			return nil, fmt.Errorf("sql: bad column type %q", p.cur().text)
		}
		ct.Cols = append(ct.Cols, col.text)
		ct.Types = append(ct.Types, typ)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *parser) parseDrop() (Stmt, error) {
	p.pos++ // DROP
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	return &DropTable{Name: name.text}, nil
}

func (p *parser) parseInsert() (Stmt, error) {
	p.pos++ // INSERT
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	ins := &Insert{Table: name.text}
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Lit
		for {
			lit, err := p.parseLit()
			if err != nil {
				return nil, err
			}
			row = append(row, lit)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseDelete() (Stmt, error) {
	p.pos++ // DELETE
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	d := &Delete{Table: name.text}
	if p.accept(tokKeyword, "WHERE") {
		if d.Where, err = p.parsePreds(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (p *parser) parseUpdate() (Stmt, error) {
	p.pos++ // UPDATE
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	u := &Update{Table: name.text, Set: map[string]Lit{}}
	for {
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "="); err != nil {
			return nil, err
		}
		lit, err := p.parseLit()
		if err != nil {
			return nil, err
		}
		u.Set[col.text] = lit
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		if u.Where, err = p.parsePreds(); err != nil {
			return nil, err
		}
	}
	return u, nil
}

func (p *parser) parseSelect() (Stmt, error) {
	p.pos++ // SELECT
	s := &Select{Limit: -1}
	for {
		item, err := p.parseSelItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	from, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	s.From = from.text
	for p.accept(tokKeyword, "JOIN") {
		jt, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "ON"); err != nil {
			return nil, err
		}
		lc, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "="); err != nil {
			return nil, err
		}
		rc, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		s.Joins = append(s.Joins, &JoinClause{Table: jt.text, LCol: lc.text, RCol: rc.text})
	}
	if p.accept(tokKeyword, "WHERE") {
		if s.Where, err = p.parsePreds(); err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, g.text)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		o, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		s.OrderBy = o.text
		if p.accept(tokKeyword, "DESC") {
			s.Desc = true
		} else {
			p.accept(tokKeyword, "ASC")
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		n, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		s.Limit, err = strconv.Atoi(n.text)
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// aggKeywords maps the aggregate keywords to their functions.
var aggKeywords = map[string]AggFn{"SUM": AggSum, "COUNT": AggCount, "MIN": AggMin, "MAX": AggMax, "AVG": AggAvg}

func (p *parser) parseSelItem() (SelItem, error) {
	if p.accept(tokSymbol, "*") {
		return SelItem{Star: true}, nil
	}
	var item SelItem
	if p.cur().kind == tokKeyword {
		if fn, ok := aggKeywords[p.cur().text]; ok {
			item.Agg = fn
			p.pos++
			if _, err := p.expect(tokSymbol, "("); err != nil {
				return item, err
			}
			if item.Agg == AggCount && p.accept(tokSymbol, "*") {
				item.Expr = nil
			} else {
				e, err := p.parseExpr()
				if err != nil {
					return item, err
				}
				item.Expr = e
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return item, err
			}
			if p.accept(tokKeyword, "AS") {
				a, err := p.expect(tokIdent, "")
				if err != nil {
					return item, err
				}
				item.Alias = a.text
			}
			return item, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return item, err
	}
	item.Expr = e
	if p.accept(tokKeyword, "AS") {
		a, err := p.expect(tokIdent, "")
		if err != nil {
			return item, err
		}
		item.Alias = a.text
	}
	return item, nil
}

// parseExpr parses additive expressions over multiplicative terms.
func (p *parser) parseExpr() (Expr, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokSymbol, "+"):
			r, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			l = BinExpr{Op: '+', L: l, R: r}
		case p.accept(tokSymbol, "-"):
			r, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			l = BinExpr{Op: '-', L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseTerm() (Expr, error) {
	l, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for p.accept(tokSymbol, "*") {
		r, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: '*', L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseFactor() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokIdent:
		p.pos++
		return ColRef{Name: t.text}, nil
	case tokNumber, tokFloat, tokString:
		return p.parseLit()
	case tokKeyword:
		if t.text == "NULL" {
			return p.parseLit()
		}
	case tokSymbol:
		if t.text == "?" {
			return p.parseLit()
		}
		if t.text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("sql: unexpected %q in expression", t.text)
}

func (p *parser) parseLit() (Lit, error) {
	t := p.cur()
	if t.kind == tokKeyword && t.text == "NULL" {
		p.pos++
		return Lit{Null: true}, nil
	}
	if t.kind == tokSymbol && t.text == "?" {
		p.pos++
		p.nparams++
		return Lit{Param: p.nparams}, nil
	}
	switch t.kind {
	case tokNumber:
		p.pos++
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Lit{}, err
		}
		return Lit{Kind: TInt, I: v}, nil
	case tokFloat:
		p.pos++
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return Lit{}, err
		}
		return Lit{Kind: TFloat, F: v}, nil
	case tokString:
		p.pos++
		return Lit{Kind: TText, S: t.text}, nil
	}
	return Lit{}, fmt.Errorf("sql: expected literal, got %q", t.text)
}

func (p *parser) parsePreds() ([]Pred, error) {
	var out []Pred
	for {
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		if p.accept(tokKeyword, "IS") {
			// col IS [NOT] NULL: the only way to select on missing values
			// (col = NULL is three-valued-logic unknown and rejected).
			op := "isnull"
			if p.accept(tokKeyword, "NOT") {
				op = "isnotnull"
			}
			if _, err := p.expect(tokKeyword, "NULL"); err != nil {
				return nil, err
			}
			out = append(out, Pred{Col: col.text, Op: op})
			if !p.accept(tokKeyword, "AND") {
				return out, nil
			}
			continue
		}
		opTok := p.cur()
		if opTok.kind != tokSymbol {
			return nil, fmt.Errorf("sql: expected comparison, got %q", opTok.text)
		}
		switch opTok.text {
		case "=", "<>", "<", "<=", ">", ">=":
			p.pos++
		default:
			return nil, fmt.Errorf("sql: bad comparison %q", opTok.text)
		}
		lit, err := p.parseLit()
		if err != nil {
			return nil, err
		}
		out = append(out, Pred{Col: col.text, Op: opTok.text, Val: lit})
		if !p.accept(tokKeyword, "AND") {
			return out, nil
		}
	}
}
