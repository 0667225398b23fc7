package sqlparse

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"qtrade/internal/expr"
	"qtrade/internal/value"
)

// aggregate function names.
var aggFns = map[string]bool{"SUM": true, "COUNT": true, "AVG": true, "MIN": true, "MAX": true}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	i    int
	src  string
}

// ParseSelect parses one SELECT block and requires the end of the input.
func ParseSelect(src string) (*Select, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if err := p.expectEOF(); err != nil {
		return nil, err
	}
	return sel, nil
}

// MustParseSelect parses a single SELECT or panics.
func MustParseSelect(src string) *Select {
	s, err := ParseSelect(src)
	if err != nil {
		panic(err)
	}
	return s
}

// ParseExpr parses a standalone scalar expression (used in tests and for
// partition predicates in catalog definitions).
func ParseExpr(src string) (expr.Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectEOF(); err != nil {
		return nil, err
	}
	return e, nil
}

// MustParseExpr parses an expression or panics.
func MustParseExpr(src string) expr.Expr {
	e, err := ParseExpr(src)
	if err != nil {
		panic(err)
	}
	return e
}

func (p *parser) cur() token { return p.toks[p.i] }
func (p *parser) peek() token {
	if p.i+1 < len(p.toks) {
		return p.toks[p.i+1]
	}
	return token{kind: tokEOF}
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqlparse: %s (near position %d in %q)", fmt.Sprintf(format, args...), p.cur().pos, truncate(p.src))
}

func truncate(s string) string {
	if len(s) > 80 {
		return s[:77] + "..."
	}
	return s
}

func (p *parser) isKeyword(kw string) bool {
	return p.cur().word == kw
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s", kw)
	}
	return nil
}

func (p *parser) isOp(op string) bool {
	t := p.cur()
	return t.kind == tokOp && t.text == op
}

func (p *parser) acceptOp(op string) bool {
	if p.isOp(op) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errf("expected %q", op)
	}
	return nil
}

func (p *parser) expectEOF() error {
	if p.cur().kind != tokEOF {
		return p.errf("unexpected trailing input %q", p.cur().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, got %q", t.text)
	}
	p.i++
	return t.text, nil
}

func (p *parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	s := &Select{Limit: -1}
	s.Distinct = p.acceptKeyword("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	var joinConds []expr.Expr
	for {
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		s.From = append(s.From, tr)
		for {
			if p.acceptKeyword("INNER") {
				if err := p.expectKeyword("JOIN"); err != nil {
					return nil, err
				}
			} else if !p.acceptKeyword("JOIN") {
				break
			}
			tr2, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			s.From = append(s.From, tr2)
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			joinConds = append(joinConds, cond)
		}
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		joinConds = append(joinConds, w)
	}
	s.Where = expr.And(joinConds)
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, g)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = h
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.cur()
		if t.kind != tokNumber {
			return nil, p.errf("expected LIMIT count")
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil || n < 0 {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		p.i++
		s.Limit = n
	}
	return s, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptOp("*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		a, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if t := p.cur(); t.kind == tokIdent && !expr.Keywords[t.word] {
		item.Alias = t.text
		p.i++
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	if t := p.cur(); expr.Keywords[t.word] {
		return TableRef{}, p.errf("expected table name, got keyword %q", t.text)
	}
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	tr := TableRef{Name: name}
	if p.acceptKeyword("AS") {
		// A bare keyword is no alias here either; a quoted one is.
		if t := p.cur(); expr.Keywords[t.word] {
			return TableRef{}, p.errf("expected alias, got keyword %q", t.text)
		}
		a, err := p.ident()
		if err != nil {
			return TableRef{}, err
		}
		tr.Alias = a
	} else if t := p.cur(); t.kind == tokIdent && !expr.Keywords[t.word] {
		tr.Alias = t.text
		p.i++
	}
	return tr, nil
}

// Expression grammar: OR > AND > NOT > comparison > additive > multiplicative
// > unary > primary.

func (p *parser) parseExpr() (expr.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &expr.Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &expr.Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (expr.Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &expr.Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (expr.Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.isOp("=") || p.isOp("<>") || p.isOp("<") || p.isOp("<=") || p.isOp(">") || p.isOp(">="):
			op := p.cur().text
			p.i++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &expr.Binary{Op: op, L: l, R: r}
		case p.isKeyword("IS"):
			p.i++
			not := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			l = &expr.IsNull{X: l, Not: not}
		case p.isKeyword("IN"), p.isKeyword("NOT") && p.peek().word == "IN":
			not := p.acceptKeyword("NOT")
			if err := p.expectKeyword("IN"); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			var list []expr.Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				list = append(list, e)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			l = &expr.In{X: l, List: list, Not: not}
		case p.isKeyword("BETWEEN"), p.isKeyword("NOT") && p.peek().word == "BETWEEN":
			not := p.acceptKeyword("NOT")
			if err := p.expectKeyword("BETWEEN"); err != nil {
				return nil, err
			}
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &expr.Between{X: l, Lo: lo, Hi: hi, Not: not}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseAdditive() (expr.Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.isOp("+") || p.isOp("-") {
		op := p.cur().text
		p.i++
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &expr.Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMultiplicative() (expr.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.isOp("*") || p.isOp("/") || p.isOp("%") {
		op := p.cur().text
		p.i++
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &expr.Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (expr.Expr, error) {
	if p.acceptOp("-") {
		// The smallest integer prints as -9223372036854775808, whose digits
		// alone int64 cannot hold: the minus belongs to the literal.
		if t := p.cur(); t.kind == tokNumber && t.text == "9223372036854775808" {
			p.i++
			return expr.NewLit(value.NewInt(math.MinInt64)), nil
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := x.(*expr.Lit); ok {
			switch lit.V.K {
			case value.Int:
				neg, _ := value.Neg(lit.V) // an integer always negates
				return expr.NewLit(neg), nil
			case value.Float:
				// 0 - f, not -f: -0.0 would print as -0 and read back as 0.
				return expr.NewLit(value.NewFloat(0 - lit.V.F)), nil
			}
		}
		return &expr.Unary{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (expr.Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.i++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return expr.NewLit(value.NewFloat(f)), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return expr.NewLit(value.NewInt(n)), nil
	case tokString:
		p.i++
		return expr.NewLit(value.NewStr(t.text)), nil
	case tokOp:
		if t.text == "(" {
			p.i++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errf("unexpected %q", t.text)
	case tokIdent:
		switch t.word {
		case "NULL":
			p.i++
			return expr.NewLit(value.NewNull()), nil
		case "TRUE":
			p.i++
			return expr.TrueExpr(), nil
		case "FALSE":
			p.i++
			return expr.FalseExpr(), nil
		}
		if aggFns[t.word] && p.peek().kind == tokOp && p.peek().text == "(" {
			return p.parseAgg(t.word)
		}
		p.i++
		if p.acceptOp(".") {
			colName, err := p.ident()
			if err != nil {
				return nil, err
			}
			return expr.NewColumn(t.text, colName), nil
		}
		return expr.NewColumn("", t.text), nil
	}
	return nil, p.errf("unexpected token")
}

func (p *parser) parseAgg(fn string) (expr.Expr, error) {
	p.i++ // function name
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	if p.acceptOp("*") {
		if fn != "COUNT" {
			return nil, p.errf("%s(*) is not valid", fn)
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &expr.Agg{Fn: fn, Star: true}, nil
	}
	distinct := p.acceptKeyword("DISTINCT")
	arg, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &expr.Agg{Fn: fn, Arg: arg, Distinct: distinct}, nil
}
