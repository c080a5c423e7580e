package repro

import (
	"os"
	"path"
	"regexp"
	"strings"
	"testing"
)

// docsWithCommands are the documents that describe the tree as it is
// and tell a reader what to run. The roadmap and the change log are not
// among them: they name flags that do not exist yet or any more.
var docsWithCommands = []string{
	"README.md", "DESIGN.md", "EXPERIMENTS.md", "CALIBRATION.md",
	".claude/skills/verify/SKILL.md", "Makefile",
}

// TestDocCommandsExist keeps the commands the documents tell a reader
// to run from drifting off the code: every flag of a binary under cmd/ and
// every make target docsWithCommands name — the Makefile's own comments
// and recipes included — must exist. Flags are read from the flag
// definitions in cmd/<name>/main.go, targets from the Makefile's rules.
//
// A command is looked for in code only — backtick spans and fenced or
// indented blocks; every line of the Makefile. On one line, a span
// holding nothing but flags (`-ops N`) continues the command before it.
func TestDocCommandsExist(t *testing.T) {
	flags := map[string]map[string]bool{}
	for _, bin := range []string{"mcbench", "mccheck", "mcserver", "mccli"} {
		flags[bin] = definedFlags(t, "cmd/"+bin+"/main.go")
	}
	targets := makeTargets(t)

	checked := 0
	for _, doc := range docsWithCommands {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, segs := range codeSegments(doc, string(text)) {
			bin := "" // the command the line's bare flag spans continue
			for _, seg := range segs {
				for _, cmd := range splitCommands(seg) {
					name, args := commandOf(cmd, flags)
					switch {
					case name == "make":
						for _, a := range args {
							if strings.HasPrefix(a, "-") || strings.Contains(a, "=") {
								continue
							}
							checked++
							if !targets[a] {
								t.Errorf("%s:%d: make target %q is not in the Makefile", doc, i+1, a)
							}
						}
						bin = ""
						continue
					case flags[name] != nil:
						bin = name
					case name != "":
						bin = ""
						continue
					}
					if bin == "" {
						continue
					}
					for _, a := range args {
						f := flagName(a)
						if f == "" {
							continue
						}
						checked++
						if !flags[bin][f] {
							t.Errorf("%s:%d: %s has no flag -%s", doc, i+1, bin, f)
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no flag or target found in the documents: the check is vacuous")
	}
}

var (
	flagDef   = regexp.MustCompile(`flag\.[A-Za-z0-9]+\("([A-Za-z0-9_-]+)"`)
	makeRule  = regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):([^=]|$)`)
	flagToken = regexp.MustCompile(`^--?([A-Za-z][A-Za-z0-9_-]*)(=.*)?$`)
	codeSpan  = regexp.MustCompile("`([^`]+)`")
)

// definedFlags lists the flags a command's main.go defines.
func definedFlags(t *testing.T, file string) map[string]bool {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, m := range flagDef.FindAllStringSubmatch(string(src), -1) {
		out[m[1]] = true
	}
	if len(out) == 0 {
		t.Fatalf("%s defines no flags", file)
	}
	return out
}

// makeTargets lists the Makefile's rule targets.
func makeTargets(t *testing.T) map[string]bool {
	t.Helper()
	src, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, m := range makeRule.FindAllStringSubmatch(string(src), -1) {
		out[m[1]] = true
	}
	return out
}

// codeSegments returns, per line of a document, the code on it: the
// whole line in a fenced or indented Markdown block and in the
// Makefile, the backtick spans elsewhere.
func codeSegments(doc, text string) [][]string {
	lines := strings.Split(text, "\n")
	out := make([][]string, len(lines))
	fenced := false
	for i, l := range lines {
		switch {
		case doc != "Makefile" && strings.HasPrefix(strings.TrimSpace(l), "```"):
			fenced = !fenced
		case doc == "Makefile" || fenced || strings.HasPrefix(l, "    ") || strings.HasPrefix(l, "\t"):
			out[i] = []string{strings.ReplaceAll(l, "`", " ")}
		default:
			for _, m := range codeSpan.FindAllStringSubmatch(l, -1) {
				out[i] = append(out[i], m[1])
			}
		}
	}
	return out
}

// splitCommands cuts a code segment at pipes, command lists and
// comments into the tokens of each command.
func splitCommands(seg string) [][]string {
	var cmds [][]string
	var cur []string
	for _, tok := range strings.Fields(seg) {
		if strings.HasPrefix(tok, "#") {
			break
		}
		switch tok {
		case "|", "||", "&&", ";", "&", "$":
			cmds, cur = append(cmds, cur), nil
			continue
		}
		cur = append(cur, tok)
	}
	return append(cmds, cur)
}

// commandOf names the command a token list runs — one of the binaries
// (as a path, or behind go run), make, another command, or "" for a
// list of bare flags — and returns the tokens after the name.
func commandOf(toks []string, bins map[string]map[string]bool) (name string, args []string) {
	for i, tok := range toks {
		tok = strings.Trim(tok, "()")
		switch {
		case i == 0 && strings.HasPrefix(tok, "-"):
			return "", toks
		case i == 0 && tok == "make":
			return "make", toks[1:]
		case bins[path.Base(tok)] != nil:
			if i > 0 && (toks[0] != "go" || toks[1] != "run") {
				return "other", nil
			}
			return path.Base(tok), toks[i+1:]
		}
	}
	return "other", nil
}

// flagName is the flag a token names ("[-faults]", "-ops", "-seeds=5"),
// or "".
func flagName(tok string) string {
	m := flagToken.FindStringSubmatch(strings.Trim(tok, "[](),.;:"))
	if m == nil {
		return ""
	}
	return m[1]
}
