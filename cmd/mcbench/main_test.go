package main

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestStudiesMatchGolden runs every row of the study table and compares
// its text, byte for byte, with its section of testdata/studies.golden —
// the checked-in output of `mcbench -study all -quick`. A failing subtest
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
			if err := s.write(&got, 0, true); err != nil {
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

// TestExperimentsTablesAreGolden keeps EXPERIMENTS.md's study tables
// from drifting off the gate: every fenced or four-space-indented block
// of the document whose first line is a `# ...` table header the golden
// prints must be, line for line, a contiguous run of golden lines
// (trailing blanks ignored — the golden pads its columns, editors strip
// that — and trailing blank lines). Blocks headed by anything else — shell
// transcripts, history the golden never printed — are not its business.
func TestExperimentsTablesAreGolden(t *testing.T) {
	goldenText, err := os.ReadFile("testdata/studies.golden")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	golden := strings.Split(string(goldenText), "\n")
	for i := range golden {
		golden[i] = strings.TrimRight(golden[i], " ")
	}
	checked := 0
	for _, b := range docBlocks(string(doc)) {
		if !strings.HasPrefix(b.lines[0], "# ") {
			continue
		}
		headerSeen, match := false, false
		for i := range golden {
			if golden[i] != b.lines[0] {
				continue
			}
			headerSeen = true
			if i+len(b.lines) <= len(golden) && slices.Equal(golden[i:i+len(b.lines)], b.lines) {
				match = true
				break
			}
		}
		if !headerSeen {
			continue
		}
		checked++
		if !match {
			t.Errorf("EXPERIMENTS.md line %d: the block headed %q is not a run of lines of testdata/studies.golden; copy the table from the golden (or `mcbench -study <name>`), do not edit it by hand",
				b.line, b.lines[0])
		}
	}
	if checked == 0 {
		t.Fatal("EXPERIMENTS.md has no block headed by a golden table header: the check is vacuous")
	}
}

// docBlock is one literal block of a Markdown document: its lines (fence
// or indent and trailing blanks stripped, trailing blank lines dropped)
// and the 1-based line its first line sits on.
type docBlock struct {
	line  int
	lines []string
}

// docBlocks extracts the ``` fenced and four-space-indented blocks.
func docBlocks(doc string) []docBlock {
	var out []docBlock
	add := func(b docBlock) {
		for i := range b.lines {
			b.lines[i] = strings.TrimRight(b.lines[i], " ")
		}
		for len(b.lines) > 0 && b.lines[len(b.lines)-1] == "" {
			b.lines = b.lines[:len(b.lines)-1]
		}
		if len(b.lines) > 0 {
			out = append(out, b)
		}
	}
	lines := strings.Split(doc, "\n")
	for i := 0; i < len(lines); i++ {
		switch {
		case strings.HasPrefix(lines[i], "```"):
			b := docBlock{line: i + 2}
			for i++; i < len(lines) && !strings.HasPrefix(lines[i], "```"); i++ {
				b.lines = append(b.lines, lines[i])
			}
			add(b)
		case strings.HasPrefix(lines[i], "    "):
			b := docBlock{line: i + 1}
			for ; i < len(lines) && (strings.HasPrefix(lines[i], "    ") || strings.TrimSpace(lines[i]) == ""); i++ {
				b.lines = append(b.lines, strings.TrimPrefix(lines[i], "    "))
			}
			i--
			add(b)
		}
	}
	return out
}
