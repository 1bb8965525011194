package sqlfe

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"lambada/internal/engine"
)

// Parse translates a SQL query into an (unoptimized) engine plan. Callers
// typically run engine.Optimize afterwards.
func Parse(src string) (engine.Plan, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	plan, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, fmt.Errorf("sqlfe: trailing input %q at %d", p.peek().text, p.peek().pos)
	}
	return plan, nil
}

// DateEpoch is day zero of DATE literal encoding — 1992-01-01, matching the
// tpch package.
var DateEpoch = time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)

type parser struct {
	toks []token
	pos  int
	// quals are the table-qualifier tokens seen while parsing expressions
	// and column references; the select list parses before FROM, so they
	// are validated against the table list at the end of parseSelect.
	quals []token
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	t := p.peek()
	return t, fmt.Errorf("sqlfe: expected %q, got %q at %d", text, t.text, t.pos)
}

type selectItem struct {
	expr engine.Expr
	agg  *engine.AggSpec
	name string
}

func (p *parser) parseSelect() (engine.Plan, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	var items []selectItem
	for {
		it, err := p.parseSelectItem(len(items))
		if err != nil {
			return nil, err
		}
		items = append(items, it)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, fmt.Errorf("sqlfe: expected table name: %w", err)
	}
	var plan engine.Plan = &engine.ScanPlan{Table: tbl.text}

	// INNER JOIN chain: each join adds a broadcast-side scan probed by the
	// plan built so far (left-deep).
	tables := []string{tbl.text}
	for {
		if p.accept(tokKeyword, "INNER") {
			if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
				return nil, err
			}
		} else if !p.accept(tokKeyword, "JOIN") {
			break
		}
		rt, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, fmt.Errorf("sqlfe: expected join table name: %w", err)
		}
		if _, err := p.expect(tokKeyword, "ON"); err != nil {
			return nil, err
		}
		lks, rks, err := p.parseJoinOn(tables, rt.text)
		if err != nil {
			return nil, err
		}
		plan = &engine.JoinPlan{
			Left:     plan,
			Right:    &engine.ScanPlan{Table: rt.text},
			LeftKeys: lks, RightKeys: rks,
		}
		tables = append(tables, rt.text)
	}

	if p.accept(tokKeyword, "WHERE") {
		pred, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		plan = &engine.FilterPlan{In: plan, Pred: pred}
	}

	var groupBy []string
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			groupBy = append(groupBy, c.name)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}

	plan, outNames, err := p.buildProjection(plan, items, groupBy)
	if err != nil {
		return nil, err
	}

	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		var keys []engine.OrderKey
		for {
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			if !contains(outNames, c.name) {
				return nil, fmt.Errorf("sqlfe: ORDER BY column %q not in select list", c.name)
			}
			k := engine.OrderKey{Column: c.name}
			if p.accept(tokKeyword, "DESC") {
				k.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			keys = append(keys, k)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		plan = &engine.OrderByPlan{In: plan, Keys: keys}
	}

	if p.accept(tokKeyword, "LIMIT") {
		n, err := p.expect(tokNumber, "")
		if err != nil {
			return nil, err
		}
		v, err := strconv.Atoi(n.text)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("sqlfe: bad LIMIT %q", n.text)
		}
		plan = &engine.LimitPlan{In: plan, N: v}
	}

	// Qualifiers resolve columns by name, but a wrong table name is a bug
	// in the query text — reject it instead of silently binding to
	// whichever table owns the column. (Only the table name is checked:
	// `orders.l_extendedprice` with both tables in FROM still binds by
	// column name — qualifier-to-column ownership needs schemas, which
	// only engine.Resolve sees.)
	for _, q := range p.quals {
		if !contains(tables, q.text) {
			return nil, fmt.Errorf("sqlfe: unknown table %q at %d", q.text, q.pos)
		}
	}
	return plan, nil
}

// buildProjection turns the select list into Aggregate and/or Project nodes.
func (p *parser) buildProjection(in engine.Plan, items []selectItem, groupBy []string) (engine.Plan, []string, error) {
	hasAgg := false
	for _, it := range items {
		if it.agg != nil {
			hasAgg = true
		}
	}
	if !hasAgg && len(groupBy) > 0 {
		return nil, nil, fmt.Errorf("sqlfe: GROUP BY without aggregates")
	}
	var names []string
	if !hasAgg {
		exprs := make([]engine.Expr, len(items))
		for i, it := range items {
			exprs[i] = it.expr
			names = append(names, it.name)
		}
		return &engine.ProjectPlan{In: in, Exprs: exprs, Names: names}, names, nil
	}
	// Aggregate query: non-aggregate items must be group keys.
	agg := &engine.AggregatePlan{In: in, GroupBy: groupBy}
	var exprs []engine.Expr
	for _, it := range items {
		names = append(names, it.name)
		if it.agg != nil {
			spec := *it.agg
			spec.Name = it.name
			agg.Aggs = append(agg.Aggs, spec)
			exprs = append(exprs, engine.Col(it.name))
			continue
		}
		col, ok := it.expr.(engine.Col)
		if !ok || !contains(groupBy, string(col)) {
			return nil, nil, fmt.Errorf("sqlfe: select item %q is neither aggregate nor group key", it.name)
		}
		exprs = append(exprs, col)
	}
	// A projection on top restores the requested item order/names.
	return &engine.ProjectPlan{In: agg, Exprs: exprs, Names: names}, names, nil
}

// colref is a possibly table-qualified column reference in an ON clause.
type colref struct {
	qual, name string
}

func (c colref) String() string {
	if c.qual != "" {
		return c.qual + "." + c.name
	}
	return c.name
}

// parseColRef parses ident or ident.ident.
func (p *parser) parseColRef() (colref, error) {
	id, err := p.expect(tokIdent, "")
	if err != nil {
		return colref{}, fmt.Errorf("sqlfe: expected column in ON clause: %w", err)
	}
	if p.accept(tokSymbol, ".") {
		col, err := p.expect(tokIdent, "")
		if err != nil {
			return colref{}, fmt.Errorf("sqlfe: expected column after %q.: %w", id.text, err)
		}
		p.quals = append(p.quals, id)
		return colref{qual: id.text, name: col.text}, nil
	}
	return colref{name: id.text}, nil
}

// parseJoinOn parses `a.x = b.y [AND ...]` into left/right key lists.
// Qualified references are assigned to their side by table name (leftTables
// are every table joined so far, rightTable the one being joined);
// unqualified references fall back to positional order, left key first.
func (p *parser) parseJoinOn(leftTables []string, rightTable string) (lks, rks []string, err error) {
	side := func(c colref) (int, error) { // 0 unknown, 1 left, 2 right
		switch {
		case c.qual == "":
			return 0, nil
		case c.qual == rightTable:
			return 2, nil
		case contains(leftTables, c.qual):
			return 1, nil
		default:
			return 0, fmt.Errorf("sqlfe: unknown table %q in ON clause", c.qual)
		}
	}
	for {
		a, err := p.parseColRef()
		if err != nil {
			return nil, nil, err
		}
		if _, err := p.expect(tokSymbol, "="); err != nil {
			return nil, nil, fmt.Errorf("sqlfe: join conditions must be equalities: %w", err)
		}
		b, err := p.parseColRef()
		if err != nil {
			return nil, nil, err
		}
		as, err := side(a)
		if err != nil {
			return nil, nil, err
		}
		bs, err := side(b)
		if err != nil {
			return nil, nil, err
		}
		switch {
		case as == bs && as != 0:
			return nil, nil, fmt.Errorf("sqlfe: ON condition %s = %s references only one join side", a, b)
		case as == 2 || bs == 1:
			lks, rks = append(lks, b.name), append(rks, a.name)
		default: // as == 1, bs == 2, or both unqualified: positional
			lks, rks = append(lks, a.name), append(rks, b.name)
		}
		if !p.accept(tokKeyword, "AND") {
			break
		}
	}
	return lks, rks, nil
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// aggFuncs are the keywords a select item's aggregate starts with.
var aggFuncs = map[string]engine.AggFunc{"SUM": engine.AggSum, "COUNT": engine.AggCount, "AVG": engine.AggAvg,
	"MIN": engine.AggMin, "MAX": engine.AggMax}

func (p *parser) parseSelectItem(idx int) (selectItem, error) {
	var it selectItem
	// An aggregate starts with its function's keyword; anything else — a
	// column, a literal, DATE '…' — is an expression.
	t := p.peek()
	if fn, ok := aggFuncs[t.text]; ok && t.kind == tokKeyword {
		p.next()
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return it, err
		}
		spec := engine.AggSpec{Func: fn}
		if p.accept(tokSymbol, "*") {
			if spec.Func != engine.AggCount {
				return it, fmt.Errorf("sqlfe: %s(*) not allowed", t.text)
			}
		} else {
			arg, err := p.parseExpr()
			if err != nil {
				return it, err
			}
			spec.Arg = arg
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return it, err
		}
		it.agg = &spec
		it.name = fmt.Sprintf("%s_%d", strings.ToLower(t.text), idx)
	} else {
		e, err := p.parseExpr()
		if err != nil {
			return it, err
		}
		it.expr = e
		if c, ok := e.(engine.Col); ok {
			it.name = string(c)
		} else {
			it.name = fmt.Sprintf("expr_%d", idx)
		}
	}
	if p.accept(tokKeyword, "AS") {
		name, err := p.expect(tokIdent, "")
		if err != nil {
			return it, err
		}
		it.name = name.text
	}
	return it, nil
}

// Expression grammar (precedence climbing):
//
//	expr    := orExpr
//	orExpr  := andExpr (OR andExpr)*
//	andExpr := notExpr (AND notExpr)*
//	notExpr := NOT notExpr | cmpExpr
//	cmpExpr := addExpr ((< <= > >= = <> !=) addExpr | BETWEEN addExpr AND addExpr)?
//	addExpr := mulExpr ((+ -) mulExpr)*
//	mulExpr := unary ((* /) unary)*
//	unary   := - unary | primary
//	primary := number | DATE 'y-m-d' | TRUE | FALSE | ident | ( expr )
func (p *parser) parseExpr() (engine.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (engine.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = engine.NewBin(engine.OpOr, l, r)
	}
	return l, nil
}

func (p *parser) parseAnd() (engine.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = engine.NewBin(engine.OpAnd, l, r)
	}
	return l, nil
}

func (p *parser) parseNot() (engine.Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &engine.Not{E: e}, nil
	}
	return p.parseCmp()
}

var cmpOps = map[string]engine.BinOp{
	"<": engine.OpLT, "<=": engine.OpLE, ">": engine.OpGT, ">=": engine.OpGE,
	"=": engine.OpEQ, "<>": engine.OpNE, "!=": engine.OpNE,
}

func (p *parser) parseCmp() (engine.Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.accept(tokKeyword, "BETWEEN") {
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return engine.Between(l, lo, hi), nil
	}
	if t := p.peek(); t.kind == tokSymbol {
		if op, ok := cmpOps[t.text]; ok {
			p.next()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return engine.NewBin(op, l, r), nil
		}
	}
	return l, nil
}

func (p *parser) parseAdd() (engine.Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokSymbol, "+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = engine.NewBin(engine.OpAdd, l, r)
		case p.accept(tokSymbol, "-"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = engine.NewBin(engine.OpSub, l, r)
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMul() (engine.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokSymbol, "*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = engine.NewBin(engine.OpMul, l, r)
		case p.accept(tokSymbol, "/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = engine.NewBin(engine.OpDiv, l, r)
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (engine.Expr, error) {
	if p.accept(tokSymbol, "-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return engine.NewBin(engine.OpSub, engine.ConstInt(0), e), nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (engine.Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.next()
		if strings.Contains(t.text, ".") {
			v, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("sqlfe: bad number %q", t.text)
			}
			return engine.ConstFloat(v), nil
		}
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sqlfe: bad number %q", t.text)
		}
		return engine.ConstInt(v), nil
	case t.kind == tokKeyword && t.text == "DATE":
		p.next()
		s, err := p.expect(tokString, "")
		if err != nil {
			return nil, fmt.Errorf("sqlfe: DATE needs a 'YYYY-MM-DD' literal: %w", err)
		}
		d, err := parseDate(s.text)
		if err != nil {
			return nil, err
		}
		// Support DATE '...' - INTERVAL 'n' DAY arithmetic inline.
		for {
			var sign int64
			if p.at(tokSymbol, "-") && p.toks[p.pos+1].kind == tokKeyword && p.toks[p.pos+1].text == "INTERVAL" {
				sign = -1
			} else if p.at(tokSymbol, "+") && p.toks[p.pos+1].kind == tokKeyword && p.toks[p.pos+1].text == "INTERVAL" {
				sign = 1
			} else {
				break
			}
			p.next() // sign
			p.next() // INTERVAL
			num, err := p.expect(tokString, "")
			if err != nil {
				return nil, err
			}
			n, err := strconv.ParseInt(num.text, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sqlfe: bad interval %q", num.text)
			}
			if _, err := p.expect(tokKeyword, "DAY"); err != nil {
				return nil, err
			}
			d += sign * n
		}
		return engine.ConstInt(d), nil
	case t.kind == tokKeyword && (t.text == "TRUE" || t.text == "FALSE"):
		p.next()
		if t.text == "TRUE" {
			return engine.NewBin(engine.OpEQ, engine.ConstInt(1), engine.ConstInt(1)), nil
		}
		return engine.NewBin(engine.OpEQ, engine.ConstInt(0), engine.ConstInt(1)), nil
	case t.kind == tokIdent:
		// Possibly table-qualified reference; parseColRef records the
		// qualifier for the end-of-select validation.
		c, err := p.parseColRef()
		if err != nil {
			return nil, err
		}
		return engine.Col(c.name), nil
	case t.kind == tokSymbol && t.text == "(":
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, fmt.Errorf("sqlfe: unexpected token %q at %d", t.text, t.pos)
	}
}

func parseDate(s string) (int64, error) {
	d, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, fmt.Errorf("sqlfe: bad date %q: %w", s, err)
	}
	return int64(d.Sub(DateEpoch).Hours() / 24), nil
}
