package textindex

// StoreSlots returns the slots of the index's two CSR stores and the
// live elements they hold: equal when both stores are packed.
func StoreSlots(ix *Index) (slots, live int) {
	return ix.postings.Slots() + ix.docTerms.Slots(), ix.postings.TotalLen() + ix.docTerms.TotalLen()
}
