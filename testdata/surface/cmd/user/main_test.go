package main

import (
	"testing"

	"fixture/internal/lib"
)

func TestCalls(t *testing.T) {
	lib.TestOnly()
	lib.Allowed()
	_ = lib.TestType{}
	_ = lib.TestConst + lib.TestVar
	_ = lib.Cfg{TestField: 1}
}
