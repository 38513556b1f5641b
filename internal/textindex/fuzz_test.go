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

// FuzzIndexOps drives an index through arbitrary add/update/delete/
// pack/search sequences. Every search must equal, by bits, the naive
// reference kernel over the same index, and NumDocs must track the live
// count throughout. At the end the index must answer the query exactly
// as an index rebuilt offline from the live texts does, so a store that
// lost or reordered a row in a relocation or a pack fails too.
func FuzzIndexOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, "alpha beta gamma")
	f.Add([]byte{0, 0, 1, 3, 2}, "delta epsilon")
	f.Add([]byte{0, 0, 4, 1, 0, 3, 4, 2, 3}, "alpha alpha beta")
	f.Fuzz(func(t *testing.T, ops []byte, text string) {
		ix := NewIndex()
		var texts []string // by doc id
		var alive []bool
		firstLive := func() int {
			for d := range alive {
				if alive[d] {
					return d
				}
			}
			return -1
		}
		live := 0
		for _, op := range ops {
			switch op % 5 {
			case 0:
				texts = append(texts, text+" filler words here")
				alive = append(alive, true)
				ix.Add(texts[len(texts)-1])
				live++
			case 1:
				if d := firstLive(); d >= 0 {
					texts[d] = text
					ix.Update(d, text)
				}
			case 2:
				if d := firstLive(); d >= 0 {
					alive[d] = false
					ix.Delete(d)
					live--
				}
			case 3:
				q := ix.ParseQuery(text)
				hits := ix.Search(q, 5)
				assertHitsBitEqual(t, hits, naiveSearch(ix, q, 5), "naive reference")
				for _, h := range hits {
					if !alive[h.Doc] {
						t.Fatal("dead doc retrieved")
					}
				}
			case 4:
				ix.postings.Pack()
				ix.docTerms.Pack()
			}
			if ix.NumDocs() != live {
				t.Fatalf("NumDocs %d, want %d", ix.NumDocs(), live)
			}
		}
		ref := NewIndex()
		for _, tx := range texts {
			ref.Add(tx)
		}
		for d := range alive {
			if !alive[d] {
				ref.Delete(d)
			}
		}
		assertHitsBitEqual(t, ix.Search(ix.ParseQuery(text), 5), ref.Search(ref.ParseQuery(text), 5), "offline rebuild")
	})
}
