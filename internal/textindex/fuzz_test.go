package textindex

import (
	"reflect"
	"testing"
	"unicode"
)

// FuzzTokenize checks the analyzer's invariants on arbitrary input:
// tokens are lowercase alphanumeric, at least two runes, and never
// stopwords.
func FuzzTokenize(f *testing.F) {
	f.Add("The quick brown fox")
	f.Add("Héllo, wörld! 123 -- a b cd")
	f.Add("")
	f.Add("ALL CAPS AND    SPACES")
	f.Add("emoji 🎉 mixed 中文 tokens42")
	f.Fuzz(func(t *testing.T, text string) {
		if got, want := Tokenize(text), naiveTokenize(text); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", text, got, want)
		}
		for _, tok := range Tokenize(text) {
			if len(tok) < 2 {
				t.Fatalf("short token %q", tok)
			}
			if stopwords[tok] {
				t.Fatalf("stopword %q leaked", tok)
			}
			for _, r := range tok {
				if !(r >= 'a' && r <= 'z' || unicode.IsDigit(r) && r < 128) {
					t.Fatalf("token %q contains %q", tok, r)
				}
			}
		}
	})
}

// FuzzIndexOps drives an index through arbitrary add/update/delete/search
// sequences and checks it never panics unexpectedly and keeps NumDocs
// consistent.
func FuzzIndexOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, "alpha beta gamma")
	f.Add([]byte{0, 0, 1, 3, 2}, "delta epsilon")
	f.Fuzz(func(t *testing.T, ops []byte, text string) {
		ix := NewIndex()
		live := 0
		for _, op := range ops {
			switch op % 4 {
			case 0:
				ix.Add(text + " filler words here")
				live++
			case 1:
				if live > 0 {
					// Update the first live doc.
					for d := 0; d < ix.NumSlots(); d++ {
						if ix.Alive(d) {
							ix.Update(d, text)
							break
						}
					}
				}
			case 2:
				if live > 0 {
					for d := 0; d < ix.NumSlots(); d++ {
						if ix.Alive(d) {
							ix.Delete(d)
							live--
							break
						}
					}
				}
			case 3:
				q := ix.ParseQuery(text)
				hits := ix.Search(q, 5)
				for _, h := range hits {
					if !ix.Alive(h.Doc) {
						t.Fatal("dead doc retrieved")
					}
				}
			}
			if ix.NumDocs() != live {
				t.Fatalf("NumDocs %d, want %d", ix.NumDocs(), live)
			}
		}
	})
}
