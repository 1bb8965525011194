// Package sqlfe is the SQL frontend of Lambada: a lexer and recursive-
// descent parser for the analytical subset the paper's evaluation exercises
// (SELECT with expressions and aggregates, INNER JOIN … ON equi-joins with
// optionally qualified key columns, WHERE with conjunctions and BETWEEN,
// GROUP BY, ORDER BY, LIMIT, and DATE literals), translated into the
// engine's plan IR where the common optimizations apply (§3.2).
package sqlfe

import (
	"fmt"
	"strings"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol
	tokKeyword
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"ORDER": true, "LIMIT": true, "AS": true, "AND": true, "OR": true,
	"NOT": true, "BETWEEN": true, "ASC": true, "DESC": true, "DATE": true,
	"INTERVAL": true, "DAY": true, "SUM": true, "COUNT": true, "AVG": true,
	"MIN": true, "MAX": true, "TRUE": true, "FALSE": true,
	"JOIN": true, "INNER": true, "ON": true,
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// SQL text is ASCII outside string literals: an identifier travels to the
// workers inside the plan's JSON, which cannot carry a name that is not valid
// UTF-8 unchanged. Any other byte is lexSymbol's error.
func isSpace(c byte) bool  { return c == ' ' || '\t' <= c && c <= '\r' }
func isDigit(c byte) bool  { return '0' <= c && c <= '9' }
func isLetter(c byte) bool { return 'a' <= c|0x20 && c|0x20 <= 'z' || c == '_' }

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isSpace(c):
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			// Line comment.
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case isDigit(c) || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
			l.lexNumber()
		case isLetter(c):
			l.lexWord()
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

func (l *lexer) lexNumber() {
	start := l.pos
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '.' && !seenDot {
			seenDot = true
			l.pos++
			continue
		}
		if !isDigit(c) {
			break
		}
		l.pos++
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexWord() {
	start := l.pos
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if !isLetter(c) && !isDigit(c) {
			break
		}
		l.pos++
	}
	text := l.src[start:l.pos]
	if keywords[strings.ToUpper(text)] {
		l.toks = append(l.toks, token{kind: tokKeyword, text: strings.ToUpper(text), pos: start})
	} else {
		l.toks = append(l.toks, token{kind: tokIdent, text: text, pos: start})
	}
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	for l.pos < len(l.src) && l.src[l.pos] != '\'' {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return fmt.Errorf("sqlfe: unterminated string at %d", start)
	}
	l.toks = append(l.toks, token{kind: tokString, text: l.src[start+1 : l.pos], pos: start})
	l.pos++ // closing quote
	return nil
}

func (l *lexer) lexSymbol() error {
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=":
		l.toks = append(l.toks, token{kind: tokSymbol, text: two, pos: l.pos})
		l.pos += 2
		return nil
	}
	c := l.src[l.pos]
	switch c {
	case '+', '-', '*', '/', '<', '>', '=', '(', ')', ',', '.':
		l.toks = append(l.toks, token{kind: tokSymbol, text: string(c), pos: l.pos})
		l.pos++
		return nil
	}
	return fmt.Errorf("sqlfe: unexpected character %q at %d", c, l.pos)
}
