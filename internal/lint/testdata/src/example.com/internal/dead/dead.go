// Package dead is the dead-declaration guard's fixture: of its four
// declarations, only the first two have no use outside tests.
package dead

// Unused is an exported func nothing calls.
func Unused() {}

// unused is an unexported func nothing calls.
func unused() {}

// UsedElsewhere is called only from another package.
func UsedElsewhere() int { return 1 }

// Constants are out of the guard's scope: deleting an iota member would
// renumber the members after it.
const (
	First = iota
	Second
)
