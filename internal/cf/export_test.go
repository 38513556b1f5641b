package cf

// RatingSlots returns the slots of the matrix's rating store and the
// live ratings it holds: equal when the store is packed.
func RatingSlots(m *Matrix) (slots, live int) { return m.users.Slots(), m.users.TotalLen() }
