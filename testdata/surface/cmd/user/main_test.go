package main

import (
	"testing"

	"fixture/internal/lib"
)

func TestCalls(t *testing.T) {
	lib.TestOnly()
	lib.Allowed()
}
