// Command benchmark stands in for a fenced benchmark directory.
package main

import "fixture/internal/lib"

func main() { lib.Measured() }
