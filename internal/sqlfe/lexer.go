// Package sqlfe is the SQL front-end (paper §3.2): it parses a SQL subset,
// stores relational tables decomposed into BATs with a dense (non-stored)
// TID head, keeps every column append-only with deletes as a tombstone
// list (enabling cheap snapshot isolation: a snapshot copies no rows), and
// compiles queries into MAL programs executed by the shared columnar
// back-end.
package sqlfe

import (
	"fmt"
	"strings"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokFloat
	tokString
	tokSymbol  // punctuation and operators
	tokKeyword // recognized SQL keyword (normalized upper-case)
)

type token struct {
	kind tokKind
	text string
	pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "GROUP": true,
	"BY": true, "ORDER": true, "LIMIT": true, "DESC": true, "ASC": true,
	"CREATE": true, "TABLE": true, "INSERT": true, "INTO": true, "VALUES": true,
	"DELETE": true, "UPDATE": true, "SET": true, "INT": true, "FLOAT": true,
	"TEXT": true, "JOIN": true, "ON": true, "AS": true, "SUM": true,
	"COUNT": true, "MIN": true, "MAX": true, "AVG": true, "DISTINCT": true,
	"DROP": true, "NULL": true, "IS": true, "NOT": true,
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c >= '0' && c <= '9' || (c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' && l.numberContext()):
			l.lexNumber()
		case isIdentStart(c):
			l.lexIdent()
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		default:
			if err := l.lexSymbol(); err != nil {
				return nil, err
			}
		}
	}
	l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
	return l.toks, nil
}

// numberContext reports whether a '-' at the current position starts a
// negative literal (previous token is not an operand).
func (l *lexer) numberContext() bool {
	if len(l.toks) == 0 {
		return true
	}
	prev := l.toks[len(l.toks)-1]
	switch prev.kind {
	case tokNumber, tokFloat, tokIdent, tokString:
		return false
	case tokSymbol:
		return prev.text != ")"
	}
	return true
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '.'
}

func (l *lexer) lexNumber() {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	isFloat := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' {
			l.pos++
		} else if c == '.' && !isFloat {
			isFloat = true
			l.pos++
		} else {
			break
		}
	}
	kind := tokNumber
	if isFloat {
		kind = tokFloat
	}
	l.toks = append(l.toks, token{kind: kind, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	text := l.src[start:l.pos]
	up := strings.ToUpper(text)
	if keywords[up] {
		l.toks = append(l.toks, token{kind: tokKeyword, text: up, pos: start})
	} else {
		l.toks = append(l.toks, token{kind: tokIdent, text: strings.ToLower(text), pos: start})
	}
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: sb.String(), pos: start})
			return nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sql: unterminated string at %d", start)
}

func (l *lexer) lexSymbol() error {
	start := l.pos
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=":
		l.pos += 2
		text := two
		if text == "!=" {
			text = "<>"
		}
		l.toks = append(l.toks, token{kind: tokSymbol, text: text, pos: start})
		return nil
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', ';', '*', '=', '<', '>', '+', '-', '/', '?':
		l.pos++
		l.toks = append(l.toks, token{kind: tokSymbol, text: string(c), pos: start})
		return nil
	}
	return fmt.Errorf("sql: unexpected character %q at %d", c, start)
}
