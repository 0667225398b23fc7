package sqlparse

import (
	"fmt"
	"strings"
	"unicode"

	"qtrade/internal/expr"
)

// tokenKind classifies lexer tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokOp // punctuation and operators
)

// token is one lexeme with its position for error messages. word is the
// keyword or aggregate-function name an identifier spells, in upper case, and
// empty for every other token: the parser compares it instead of folding the
// text's case at each test.
type token struct {
	kind tokenKind
	text string
	word string
	pos  int
}

// words maps every keyword and aggregate-function name to itself.
var words = func() map[string]string {
	m := map[string]string{}
	for _, set := range []map[string]bool{expr.Keywords, aggFns} {
		for w := range set {
			m[w] = w
		}
	}
	return m
}()

// wordOf classifies an identifier once, without allocating: the longest word
// is DISTINCT.
func wordOf(text string) string {
	var buf [8]byte
	if len(text) > len(buf) {
		return ""
	}
	for i := 0; i < len(text); i++ {
		c := text[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	return words[string(buf[:len(text)])]
}

// lexer tokenizes SQL text. Identifiers and keywords are case-insensitive.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes the whole input up front (queries are short).
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		l.toks = append(l.toks, tok)
		if tok.kind == tokEOF {
			return l.toks, nil
		}
	}
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && isSpace(l.src[l.pos]) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		text := l.src[start:l.pos]
		return token{kind: tokIdent, text: text, word: wordOf(text), pos: start}, nil
	case c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
		seenDot := false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch == '.' {
				if seenDot {
					break
				}
				seenDot = true
				l.pos++
				continue
			}
			if ch < '0' || ch > '9' {
				if ch == 'e' || ch == 'E' {
					// exponent
					l.pos++
					if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
						l.pos++
					}
					continue
				}
				break
			}
			l.pos++
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}, nil
	case c == '\'':
		l.pos++
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, fmt.Errorf("sqlparse: unterminated string at %d", start)
			}
			ch := l.src[l.pos]
			if ch == '\'' {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					sb.WriteByte('\'')
					l.pos += 2
					continue
				}
				l.pos++
				return token{kind: tokString, text: sb.String(), pos: start}, nil
			}
			sb.WriteByte(ch)
			l.pos++
		}
	case c == '"':
		// Double-quoted identifier: a name, never a keyword or function.
		l.pos++
		end := strings.IndexByte(l.src[l.pos:], '"')
		if end < 0 {
			return token{}, fmt.Errorf("sqlparse: unterminated quoted identifier at %d", start)
		}
		text := l.src[l.pos : l.pos+end]
		l.pos += end + 1
		return token{kind: tokIdent, text: text, pos: start}, nil
	default:
		two := ""
		if l.pos+1 < len(l.src) {
			two = l.src[l.pos : l.pos+2]
		}
		switch two {
		case "<>", "<=", ">=", "!=":
			l.pos += 2
			if two == "!=" {
				two = "<>"
			}
			return token{kind: tokOp, text: two, pos: start}, nil
		}
		switch c {
		case '(', ')', ',', '*', '+', '-', '/', '%', '=', '<', '>', '.':
			l.pos++
			return token{kind: tokOp, text: string(c), pos: start}, nil
		}
		return token{}, fmt.Errorf("sqlparse: unexpected character %q at %d", rune(c), start)
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}
