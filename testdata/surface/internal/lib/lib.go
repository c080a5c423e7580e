// Package lib is the surface rule's fixture: each export is one case.
package lib

import "fmt"

// Used is called from another package: not flagged.
func Used() {}

// TestOnly is called only from a test in another package: flagged.
func TestOnly() {}

// Allowed is called only from a test too, but the allowlist names it.
func Allowed() {}

// Measured is called only from the benchmark directory: not flagged.
func Measured() {}

// Doer is a module interface.
type Doer interface{ Do() }

// Impl implements Doer and fmt.Stringer; nothing calls its methods by
// name, so only the interface rule keeps them: not flagged.
type Impl struct{}

func (Impl) Do() {}

func (Impl) String() string { return "impl" }

// Err is an error that wraps another; errors.Is reads its Unwrap: not
// flagged.
type Err struct{ err error }

func (e *Err) Error() string { return fmt.Sprint("lib: ", e.err) }

func (e *Err) Unwrap() error { return e.err }

// Box is generic; its method is called only on an instantiation, which
// maps back to the generic method: not flagged.
type Box[T any] struct{ v T }

func (b *Box[T]) Get() T { return b.v }

// TestType, TestConst and TestVar are named only by a test in another
// package: each flagged.
type TestType struct{}

const TestConst = 1

var TestVar = 0

// Reached is named nowhere outside the package, but Make returns it,
// so a caller of Make needs it: not flagged.
type Reached struct{}

func Make() *Reached { return &Reached{} }

// Cfg is set by a composite literal in another package: Lit, the key
// it names, is not flagged; TestField, which only a test sets, is.
type Cfg struct {
	Lit       int
	TestField int
}

// Printed is formatted by fmt in another package, which prints its
// fields by name: Field is not flagged.
type Printed struct{ Field int }

func Print() Printed { return Printed{} }
