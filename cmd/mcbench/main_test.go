package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestStudiesMatchGolden runs every row of the study table and compares
// its text, byte for byte, with its section of testdata/studies.golden —
// the checked-in output of `mcbench -study all`. A failing subtest
// names the study whose numbers moved; if the move is intended, `make
// golden` and list the changed cells in EXPERIMENTS.md.
//
// The table is walked backwards, so no study runs after the history it
// had when the golden was written: output that depends on what the
// process did before fails here too.
func TestStudiesMatchGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/studies.golden")
	if err != nil {
		t.Fatal(err)
	}
	// A section runs from one "== study <name> ..." banner to the next.
	want := make(map[string]string)
	for _, sec := range strings.Split(string(golden), "== study ")[1:] {
		want[strings.Fields(sec)[0]] = "== study " + sec
	}
	if len(want) != len(studies) {
		t.Errorf("golden has %d sections, the study table %d rows", len(want), len(studies))
	}
	for i := len(studies) - 1; i >= 0; i-- {
		s := studies[i]
		t.Run(s.name, func(t *testing.T) {
			var got bytes.Buffer
			if err := s.write(&got, 0); err != nil {
				t.Fatal(err)
			}
			if got.String() != want[s.name] {
				t.Errorf("study %s no longer prints its golden text (-golden +now):\n%s",
					s.name, diffLines(want[s.name], got.String()))
			}
		})
	}
}

// diffLines lists the lines that differ, position by position.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			sb.WriteString("-" + wl + "\n+" + gl + "\n")
		}
	}
	return sb.String()
}
