// Package deadtype holds a type that only its own method mentions, which
// keeps nothing alive.
package deadtype

// Orphan is referenced only by its own method's receiver.
type Orphan struct{ n int }

// Len is a method of the otherwise unused type.
func (o *Orphan) Len() int { return o.n }
