package repro

import (
	"io/fs"
	"os"
	"path"
	"path/filepath"
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

// designCap is DESIGN.md's size limit: it describes the tree as it is,
// and history lives in the log and CHANGES.md.
const designCap = 34 << 10

// experimentsCap is EXPERIMENTS.md's size limit: it holds results, and
// how each was reached lives in CHANGES.md.
const experimentsCap = 35 << 10

// TestDocCommandsExist keeps the commands the documents tell a reader
// to run from drifting off the code: every flag of a binary under cmd/,
// every make target and every `go test` command docsWithCommands name —
// the Makefile's own comments and recipes included — must exist. Flags
// are read from the flag definitions in cmd/<name>/main.go, targets from
// the Makefile's rules. A `go test` command's package paths must exist,
// and each alternative of its -run, -bench or -fuzz pattern must match
// a function of the right kind in those packages (^$, "run nothing", is
// allowed).
//
// A command is looked for in code only — backtick spans and fenced or
// indented blocks; every line of the Makefile. On one line, a span
// holding nothing but flags (`-ops N`) continues the command before it.
func TestDocCommandsExist(t *testing.T) {
	flags := map[string]map[string]bool{}
	for _, bin := range []string{"benchpairs", "mcbench", "mccheck", "mcserver", "mccli"} {
		flags[bin] = definedFlags(t, "cmd/"+bin+"/main.go")
	}
	targets := makeTargets(t)
	funcs := testFuncs(t)

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
					case name == "go test":
						if doc == "Makefile" {
							for j, a := range args {
								args[j] = strings.ReplaceAll(a, "$$", "$")
							}
						}
						for _, msg := range checkGoTest(args, funcs) {
							t.Errorf("%s:%d: go test: %s", doc, i+1, msg)
						}
						checked++
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
		t.Fatal("no flag, target or go test command found in the documents: the check is vacuous")
	}
}

// TestDocTestNamesExist keeps the tests the documents cite from
// drifting off the code: every Test…, Example…, Benchmark… or Fuzz…
// name in docsWithCommands must be a function in some _test.go file. A
// brace group expands (`TestServer{Get,Set}ZeroAlloc` names two tests)
// and a trailing * is a prefix that must match at least one function.
func TestDocTestNamesExist(t *testing.T) {
	funcs := testFuncs(t)
	cited := 0
	for _, doc := range docsWithCommands {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, name := range citedTests(line) {
				cited++
				if !testExists(name, funcs) {
					t.Errorf("%s:%d: no test function %s", doc, i+1, name)
				}
			}
		}
	}
	if cited == 0 {
		t.Fatal("no test name found in the documents: the check is vacuous")
	}
}

// TestDesignSectionsNameTests holds DESIGN.md to its cap and makes each
// of its ## sections name at least one existing test that pins what the
// section claims.
func TestDesignSectionsNameTests(t *testing.T) {
	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(text) > designCap {
		t.Errorf("DESIGN.md is %d bytes, over its %d-byte cap", len(text), designCap)
	}
	funcs := testFuncs(t)
	sections := 0
	heading := ""
	pinned := false
	end := func() {
		if heading != "" && !pinned {
			t.Errorf("DESIGN.md section %q names no test that exists", heading)
		}
	}
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, "## ") {
			end()
			heading, pinned = strings.TrimPrefix(line, "## "), false
			sections++
			continue
		}
		for _, name := range citedTests(line) {
			pinned = pinned || testExists(name, funcs)
		}
	}
	end()
	if sections == 0 {
		t.Fatal("DESIGN.md has no ## sections")
	}
}

// TestExperimentsCap holds EXPERIMENTS.md to its cap.
func TestExperimentsCap(t *testing.T) {
	text, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(text) > experimentsCap {
		t.Errorf("EXPERIMENTS.md is %d bytes, over its %d-byte cap", len(text), experimentsCap)
	}
}

var (
	flagDef   = regexp.MustCompile(`flag\.[A-Za-z0-9]+\("([A-Za-z0-9_-]+)"`)
	makeRule  = regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):([^=]|$)`)
	flagToken = regexp.MustCompile(`^--?([A-Za-z][A-Za-z0-9_-]*)(=.*)?$`)
	codeSpan  = regexp.MustCompile("`([^`]+)`")
	envAssign = regexp.MustCompile(`^[A-Z_][A-Z0-9_]*=`)
	testFunc  = regexp.MustCompile(`(?m)^func ((?:Test|Example|Benchmark|Fuzz)\w*)\(`)
	testName  = regexp.MustCompile(`\b(?:Test|Example|Benchmark|Fuzz)(?:\{[\w,]*\}|[A-Z0-9_])(?:\w|\{[\w,]*\})*\*?`)
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

// testFuncs maps each package directory ("." for the root) to the
// Test, Example, Benchmark and Fuzz functions its _test.go files define.
func testFuncs(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	err := filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case e.IsDir() && p != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata"):
			return filepath.SkipDir
		case e.IsDir() || !strings.HasSuffix(p, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			out[dir] = append(out[dir], m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// citedTests lists the test names a line cites, brace groups expanded;
// a prefix keeps its trailing *.
func citedTests(line string) []string {
	var out []string
	for _, m := range testName.FindAllString(line, -1) {
		out = append(out, expandBraces(m)...)
	}
	return out
}

// expandBraces expands every {a,b} group of s.
func expandBraces(s string) []string {
	open := strings.IndexByte(s, '{')
	if open < 0 {
		return []string{s}
	}
	end := open + strings.IndexByte(s[open:], '}')
	var out []string
	for _, alt := range strings.Split(s[open+1:end], ",") {
		out = append(out, expandBraces(s[:open]+alt+s[end+1:])...)
	}
	return out
}

// testExists reports whether any package defines name, or, for a name
// ending in *, a function with that prefix.
func testExists(name string, funcs map[string][]string) bool {
	prefix, isPrefix := strings.CutSuffix(name, "*")
	for _, fns := range funcs {
		for _, f := range fns {
			if f == name || isPrefix && strings.HasPrefix(f, prefix) {
				return true
			}
		}
	}
	return false
}

// goTestValueFlags are the go test flags that take a value, which may
// come as the next token.
var goTestValueFlags = map[string]bool{
	"run": true, "bench": true, "fuzz": true, "skip": true, "list": true,
	"fuzztime": true, "benchtime": true, "count": true, "cpu": true,
	"parallel": true, "timeout": true, "shuffle": true, "tags": true,
	"o": true, "p": true, "coverprofile": true, "cpuprofile": true,
	"memprofile": true,
}

// patternKinds says which functions a go test pattern flag selects.
var patternKinds = map[string][]string{
	"run":   {"Test", "Example", "Fuzz"},
	"bench": {"Benchmark"},
	"fuzz":  {"Fuzz"},
}

// checkGoTest checks one go test command's arguments against the tree
// and returns what does not exist.
func checkGoTest(args []string, funcs map[string][]string) []string {
	var errs, pkgs []string
	var patterns [][2]string // flag, pattern
	for i := 0; i < len(args); i++ {
		a := strings.Trim(args[i], `'"`)
		if !strings.HasPrefix(a, "-") {
			pkgs = append(pkgs, a)
			continue
		}
		name, val, hasVal := strings.Cut(strings.TrimLeft(a, "-"), "=")
		if !hasVal && goTestValueFlags[name] && i+1 < len(args) {
			i++
			val = strings.Trim(args[i], `'"`)
		}
		if patternKinds[name] != nil {
			patterns = append(patterns, [2]string{name, val})
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	var fns []string
	for _, p := range pkgs {
		dir, all := strings.CutSuffix(p, "/...")
		dir = path.Clean(dir)
		if st, err := os.Stat(dir); err != nil || !st.IsDir() || !strings.HasPrefix(p, ".") {
			errs = append(errs, "no package "+p)
			continue
		}
		for d, f := range funcs {
			if d == dir || all && (dir == "." || strings.HasPrefix(d, dir+"/")) {
				fns = append(fns, f...)
			}
		}
	}
	for _, fp := range patterns {
		flag := fp[0]
		for _, alt := range splitAlternatives(fp[1]) {
			if alt == "^$" {
				continue
			}
			re, err := regexp.Compile(alt)
			if err != nil {
				errs = append(errs, "-"+flag+" "+alt+": "+err.Error())
				continue
			}
			if !matchesKind(re, fns, patternKinds[flag]) {
				errs = append(errs, "-"+flag+" "+alt+" matches no function in "+strings.Join(pkgs, " "))
			}
		}
	}
	return errs
}

// splitAlternatives cuts a go test pattern's top level — the part before
// any subtest / — at its top-level | bars.
func splitAlternatives(pat string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(pat); i++ {
		switch pat[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|', '/':
			if depth > 0 {
				continue
			}
			out = append(out, pat[start:i])
			if pat[i] == '/' {
				return out
			}
			start = i + 1
		}
	}
	return append(out, pat[start:])
}

// matchesKind reports whether re matches a function with one of kinds
// as its prefix.
func matchesKind(re *regexp.Regexp, fns, kinds []string) bool {
	for _, f := range fns {
		for _, k := range kinds {
			if strings.HasPrefix(f, k) && re.MatchString(f) {
				return true
			}
		}
	}
	return false
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
// (as a path, or behind go run), make, go test, another command, or ""
// for a list of bare flags — and returns the tokens after the name.
// Leading VAR=value assignments are skipped.
func commandOf(toks []string, bins map[string]map[string]bool) (name string, args []string) {
	for len(toks) > 0 && envAssign.MatchString(toks[0]) {
		toks = toks[1:]
	}
	if len(toks) >= 2 && strings.TrimLeft(toks[0], "(") == "go" && toks[1] == "test" {
		return "go test", toks[2:]
	}
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
