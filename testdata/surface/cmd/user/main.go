// Command user calls the fixture's exports the way a product package
// would.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	lib.Used()
	var d lib.Doer = lib.Impl{}
	d.Do()
	var b lib.Box[int]
	_ = b.Get()
	var err error = &lib.Err{}
	_ = err
	_ = lib.Make()
	_ = lib.Cfg{Lit: 1}
	fmt.Printf("%+v\n", lib.Print())
}
