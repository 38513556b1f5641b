package textindex

// stopwords is a small English stopword list, matching the kind of
// analysis Lucene's StandardAnalyzer performs.
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "but": true, "by": true, "for": true, "if": true, "in": true,
	"into": true, "is": true, "it": true, "no": true, "not": true, "of": true,
	"on": true, "or": true, "such": true, "that": true, "the": true,
	"their": true, "then": true, "there": true, "these": true, "they": true,
	"this": true, "to": true, "was": true, "will": true, "with": true,
}

// tokenScanner walks text once and yields its tokens: maximal runs of
// ASCII letters and digits, lower-cased, minus stopwords and
// single-character runs. Every other byte separates — which is every
// byte of a multi-byte or invalid UTF-8 sequence, so scanning bytes
// splits exactly where scanning runes would. It is the one definition of
// a token: Tokenize (index build, delta analysis) and ParseQuery (the
// serve path) both run on it.
//
// Tokens are lower-cased into a buffer inside the scanner, so a scanner
// on the caller's stack tokenizes without allocating; only a token
// longer than the buffer spills to the heap.
type tokenScanner struct {
	text string
	pos  int
	buf  [64]byte
}

// next returns the next token, valid until the following call, or false
// at the end of the text.
func (s *tokenScanner) next() ([]byte, bool) {
	for s.pos < len(s.text) {
		tok := s.buf[:0]
		for ; s.pos < len(s.text); s.pos++ {
			c := s.text[s.pos]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9') {
				s.pos++ // consume the separator that ended the run
				break
			}
			tok = append(tok, c)
		}
		if len(tok) > 1 && !stopwords[string(tok)] {
			return tok, true
		}
	}
	return nil, false
}

// Tokenize lowercases text, splits it on non-alphanumeric runes and drops
// stopwords and single-character tokens.
func Tokenize(text string) []string {
	var tokens []string
	s := tokenScanner{text: text}
	for tok, ok := s.next(); ok; tok, ok = s.next() {
		tokens = append(tokens, string(tok))
	}
	return tokens
}
