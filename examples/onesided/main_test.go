package main

import (
	"bytes"
	"runtime"
	"testing"
)

// TestRunDeterministic: the writers are stepped from one loop and the
// host accepts as an actor, so two runs print the same bytes whatever
// the number of threads Go may schedule on.
func TestRunDeterministic(t *testing.T) {
	var outs [2]bytes.Buffer
	for i, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		err := run(&outs[i])
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
	}
	if outs[0].Len() == 0 {
		t.Fatal("run printed nothing")
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Fatalf("output differs between GOMAXPROCS=1 and 4:\n%s\n---\n%s", outs[0].String(), outs[1].String())
	}
}
