// Command user calls the fixture's exports the way a product package
// would.
package main

import "fixture/internal/lib"

func main() {
	lib.Used()
	var d lib.Doer = lib.Impl{}
	d.Do()
	var b lib.Box[int]
	_ = b.Get()
}
