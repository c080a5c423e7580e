// Package golden checks an example's output against its checked-in
// testdata/stdout.golden, the bytes `go run ./examples/<name>` prints
// (`make golden` rewrites the file, `make golden-diff` shows a move).
package golden

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// Check runs an example at GOMAXPROCS 1 and 4 and requires each run to
// print the golden byte for byte: every example steps its clients from
// one goroutine, so what it prints is a function of the program alone.
func Check(t *testing.T, run func(io.Writer) error) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "stdout.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("testdata/stdout.golden is empty")
	}
	for _, procs := range []int{1, 4} {
		var out bytes.Buffer
		prev := runtime.GOMAXPROCS(procs)
		err := run(&out)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("GOMAXPROCS=%d: output is not testdata/stdout.golden:\n%s--- golden:\n%s", procs, out.Bytes(), want)
		}
	}
}
