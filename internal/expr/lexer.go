package expr

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokNumber
	tokString
	tokIdent
	tokLParen
	tokRParen
	tokComma
	tokDot
	tokNot   // !
	tokAnd   // &&
	tokOr    // ||
	tokEq    // ==
	tokNeq   // !=
	tokLt    // <
	tokGt    // >
	tokLeq   // <=
	tokGeq   // >=
	tokPlus  // +
	tokMinus // -
	tokStar  // *
	tokSlash // /
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokIdent:
		return "identifier"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokDot:
		return "'.'"
	case tokNot:
		return "'!'"
	case tokAnd:
		return "'&&'"
	case tokOr:
		return "'||'"
	case tokEq:
		return "'=='"
	case tokNeq:
		return "'!='"
	case tokLt:
		return "'<'"
	case tokGt:
		return "'>'"
	case tokLeq:
		return "'<='"
	case tokGeq:
		return "'>='"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokStar:
		return "'*'"
	case tokSlash:
		return "'/'"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

type token struct {
	kind tokKind
	pos  int     // byte offset in the source
	text string  // identifiers and strings
	num  float64 // numbers
}

// SyntaxError describes a lexing or parsing failure with its byte offset.
type SyntaxError struct {
	Src string
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("expr: %s at offset %d in %q", e.Msg, e.Pos, e.Src)
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) errf(pos int, format string, args ...interface{}) error {
	return &SyntaxError{Src: l.src, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		break
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c >= '0' && c <= '9', c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		return l.lexNumber()
	case c == '"' || c == '\'':
		return l.lexString(c)
	case c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c >= utf8.RuneSelf && isIdentStart(rune(c)):
		return l.lexIdent()
	}
	l.pos++
	two := ""
	if l.pos < len(l.src) {
		two = l.src[start : l.pos+1]
	}
	switch two {
	case "&&":
		l.pos++
		return token{kind: tokAnd, pos: start}, nil
	case "||":
		l.pos++
		return token{kind: tokOr, pos: start}, nil
	case "==":
		l.pos++
		return token{kind: tokEq, pos: start}, nil
	case "!=":
		l.pos++
		return token{kind: tokNeq, pos: start}, nil
	case "<=":
		l.pos++
		return token{kind: tokLeq, pos: start}, nil
	case ">=":
		l.pos++
		return token{kind: tokGeq, pos: start}, nil
	}
	switch c {
	case '(':
		return token{kind: tokLParen, pos: start}, nil
	case ')':
		return token{kind: tokRParen, pos: start}, nil
	case ',':
		return token{kind: tokComma, pos: start}, nil
	case '.':
		return token{kind: tokDot, pos: start}, nil
	case '!':
		return token{kind: tokNot, pos: start}, nil
	case '<':
		return token{kind: tokLt, pos: start}, nil
	case '>':
		return token{kind: tokGt, pos: start}, nil
	case '+':
		return token{kind: tokPlus, pos: start}, nil
	case '-':
		return token{kind: tokMinus, pos: start}, nil
	case '*':
		return token{kind: tokStar, pos: start}, nil
	case '/':
		return token{kind: tokSlash, pos: start}, nil
	case '&', '|':
		return token{}, l.errf(start, "single %q (did you mean %q?)", string(c), string(c)+string(c))
	case '=':
		return token{}, l.errf(start, "single '=' (did you mean '=='?)")
	}
	return token{}, l.errf(start, "unexpected character %q", string(c))
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isDigit(c):
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			// Do not swallow a trailing dot followed by an identifier
			// (there is no attribute access on numbers, but be safe).
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos+1 < len(l.src) &&
			(isDigit(l.src[l.pos+1]) || l.src[l.pos+1] == '+' || l.src[l.pos+1] == '-'):
			seenExp = true
			l.pos += 2
		default:
			goto done
		}
	}
done:
	text := l.src[start:l.pos]
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return token{}, l.errf(start, "bad number %q", text)
	}
	return token{kind: tokNumber, pos: start, num: f}, nil
}

func (l *lexer) lexString(quote byte) (token, error) {
	start := l.pos
	l.pos++ // opening quote
	if end := strings.IndexByte(l.src[l.pos:], quote); end >= 0 && strings.IndexByte(l.src[l.pos:l.pos+end], '\\') < 0 {
		// No escapes: the text is a slice of the source.
		text := l.src[l.pos : l.pos+end]
		l.pos += end + 1
		return token{kind: tokString, pos: start, text: text}, nil
	}
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case quote:
			l.pos++
			return token{kind: tokString, pos: start, text: sb.String()}, nil
		case '\\':
			if l.pos+1 >= len(l.src) {
				return token{}, l.errf(start, "unterminated string")
			}
			l.pos++
			switch e := l.src[l.pos]; e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '\\', '"', '\'':
				sb.WriteByte(e)
			default:
				return token{}, l.errf(l.pos, "bad escape \\%s", string(e))
			}
			l.pos++
		default:
			sb.WriteByte(c)
			l.pos++
		}
	}
	return token{}, l.errf(start, "unterminated string")
}

func (l *lexer) lexIdent() (token, error) {
	start := l.pos
	for l.pos < len(l.src) {
		if c := l.src[l.pos]; c < utf8.RuneSelf {
			// ASCII: exactly what isIdentPart admits, without decoding.
			if c != '_' && !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || isDigit(c)) {
				break
			}
			l.pos++
			continue
		}
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isIdentPart(r) {
			break
		}
		l.pos += size
	}
	return token{kind: tokIdent, pos: start, text: l.src[start:l.pos]}, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
