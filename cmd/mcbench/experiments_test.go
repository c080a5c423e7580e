package main

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsTablesAreGolden keeps EXPERIMENTS.md's result blocks
// from drifting off the gate: every fenced or four-space-indented block
// of the document that is not a ```console transcript must start with a
// `# ...` header line the golden prints and be, line for line, a
// contiguous run of golden lines (trailing blanks ignored — the golden
// pads its columns, editors strip that — and trailing blank lines) that
// ends where a golden panel ends, so no table loses its last rows.
func TestExperimentsTablesAreGolden(t *testing.T) {
	golden := strings.Split(string(readFile(t, "testdata/studies.golden")), "\n")
	for i := range golden {
		golden[i] = strings.TrimRight(golden[i], " ")
	}
	checked := 0
	for _, b := range docBlocks(string(readFile(t, "../../EXPERIMENTS.md"))) {
		if b.console {
			continue
		}
		checked++
		if !strings.HasPrefix(b.lines[0], "# ") || !slices.Contains(golden, b.lines[0]) {
			t.Errorf("EXPERIMENTS.md line %d: a result block must start with a golden `# ` header line, this one starts %q; paste it from the golden (or mark a transcript ```console)",
				b.line, b.lines[0])
			continue
		}
		match, whole := false, false
		for i := range golden {
			if end := i + len(b.lines); golden[i] == b.lines[0] && end <= len(golden) && slices.Equal(golden[i:end], b.lines) {
				match = true
				whole = end == len(golden) || golden[end] == "" || strings.HasPrefix(golden[end], "# ") || strings.HasPrefix(golden[end], "== ")
				if whole {
					break
				}
			}
		}
		switch {
		case !match:
			t.Errorf("EXPERIMENTS.md line %d: the block headed %q is not a run of lines of testdata/studies.golden; copy the table from the golden (or `mcbench -study <name>`), do not edit it by hand",
				b.line, b.lines[0])
		case !whole:
			t.Errorf("EXPERIMENTS.md line %d: the block headed %q stops inside a golden panel; copy the panel to its last row", b.line, b.lines[0])
		}
	}
	if checked == 0 {
		t.Fatal("EXPERIMENTS.md has no result block: the check is vacuous")
	}
}

// docBlock is one literal block of a Markdown document: its lines (fence
// or indent and trailing blanks stripped, trailing blank lines dropped),
// the 1-based line its first line sits on, and whether it is fenced as
// a ```console transcript.
type docBlock struct {
	line    int
	lines   []string
	console bool
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
			b := docBlock{line: i + 2, console: strings.TrimPrefix(lines[i], "```") == "console"}
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

// quote is one place EXPERIMENTS.md quotes the golden: the text as the
// document words it, each quoted number written {}, and what each {}
// must read, computed from studies.golden. A space in the text matches
// any run of whitespace, line breaks included.
type quote struct {
	text string
	want []string
}

// TestExperimentsQuotesGolden holds what EXPERIMENTS.md says outside its
// golden blocks to the golden: each quote must occur once, and each
// number in it must read what the golden's panel, row and column say —
// a cell as printed, a factor range recomputed from two columns.
// Rewording a quote means rewording its text here; moving a golden cell
// means moving the quote.
//
// Every number in a Markdown table must sit inside one of these quotes,
// except in the label column (the first), in a column headed "Paper …"
// (the paper's own values) and under "## Trajectory" (history: numbers
// from earlier trees, which no golden of this tree holds). A number
// added to a results table without a quote that reads it back fails.
func TestExperimentsQuotesGolden(t *testing.T) {
	doc := string(readFile(t, "../../EXPERIMENTS.md"))
	g := loadGolden(t)

	f0 := func(v float64) string { return strconv.FormatFloat(v, 'f', 0, 64) }
	f1 := func(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }
	f2 := func(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
	fig := func(ids ...string) []string {
		for i := range ids {
			ids[i] = "figures/" + ids[i]
		}
		return ids
	}
	jitter, sweep := "ablations/latency jitter", "faults/fault sweep"
	tps := "connscale/TPS at 100 clients"
	tpsRC := g.after(tps, "TPS at 100 clients:", "rc=")
	loss := func(mode string) string {
		return f0(100 * (1 - num(t, g.after(tps, "TPS at 100 clients:", mode+"="))/num(t, tpsRC)))
	}
	conn := "connscale/connection scalability"
	pipe64, pipe4k := "pipeline/pipeline: 64B", "pipeline/pipeline: 4096B"
	fleet := "fleet/fleet sweep"
	var fleetOff float64
	for _, n := range []string{"10", "100", "1000"} {
		theory := g.num(fleet, n, "theory(1/N+1)")
		fleetOff = max(fleetOff, 100*math.Abs(g.num(fleet, n, "moved(arc)")-theory)/theory)
	}

	quotes := []quote{
		// Headline claims.
		{"{} µs (fig4c 4K)", []string{g.cell("figures/fig4c", "4K", "UCR-IB")}},
		{"{} µs (fig3c 4K)", []string{g.cell("figures/fig3c", "4K", "UCR-IB")}},
		{"{}–{}× (fig3a–d)", g.factors(f1, "10GigE-TOE", "UCR-IB", fig("fig3a", "fig3b", "fig3c", "fig3d")...)},
		{"IPoIB {}–{}×, SDP {}–{}× (fig3a, fig3c)", slices.Concat(
			g.factors(f1, "IPoIB", "UCR-IB", fig("fig3a", "fig3c")...),
			g.factors(f1, "SDP", "UCR-IB", fig("fig3a", "fig3c")...))},
		{"IPoIB {}–{}×, SDP {}–{}× (fig3b, fig3d)", slices.Concat(
			g.factors(f1, "IPoIB", "UCR-IB", fig("fig3b", "fig3d")...),
			g.factors(f1, "SDP", "UCR-IB", fig("fig3b", "fig3d")...))},
		{"IPoIB {}–{}×, SDP {}–{}× (fig4a, fig4c)", slices.Concat(
			g.factors(f1, "IPoIB", "UCR-IB", fig("fig4a", "fig4c")...),
			g.factors(f1, "SDP", "UCR-IB", fig("fig4a", "fig4c")...))},
		{"IPoIB {}–{}×, SDP {}–{}× (fig4b, fig4d)", slices.Concat(
			g.factors(f1, "IPoIB", "UCR-IB", fig("fig4b", "fig4d")...),
			g.factors(f1, "SDP", "UCR-IB", fig("fig4b", "fig4d")...))},
		{"{}–{}× (fig6a)", g.factors(f1, "UCR-IB", "10GigE-TOE", fig("fig6a")...)},
		{"{}–{}× (fig6c)", g.factors(f1, "UCR-IB", "SDP", fig("fig6c")...)},
		{"{} KTPS (fig6c); {} at 50 ops per client (ablations, client scaling)", []string{
			g.cell("figures/fig6c", "16", "UCR-IB"), g.after("ablations/client scaling", "16", "")}},
		{"TOE {} vs IPoIB {} and SDP {} KTPS (fig6a, 16 clients)", []string{
			g.cell("figures/fig6a", "16", "10GigE-TOE"), g.cell("figures/fig6a", "16", "IPoIB"), g.cell("figures/fig6a", "16", "SDP")}},
		{"SDP mean {} µs, spread {}; IPoIB mean {}, spread {} (ablations, latency jitter)", []string{
			g.after(jitter, "SDP", "mean"), g.after(jitter, "SDP", "spread"),
			g.after(jitter, "IPoIB", "mean"), g.after(jitter, "IPoIB", "spread")}},
		{"every fig5 cell lies between the Set and Get cells of its size and transport", nil}, // checked below

		// Figure 6 and the known deviations.
		{"1GigE pins at its wire: {} KTPS of 4 KB values is {} Gb/s (fig6b, 16 clients)", []string{
			g.cell("figures/fig6b", "16", "1GigE"), f2(g.num("figures/fig6b", "16", "1GigE") * 1e3 * 4096 * 8 / 1e9)}},
		{"gets: {} µs on DDR against ~20 and {} µs on QDR against ~12", []string{
			g.cell("figures/fig3c", "4K", "UCR-IB"), g.cell("figures/fig4c", "4K", "UCR-IB")}},
		{"UCR is {}× SDP (fig6c, 16 clients)", []string{f1(g.num("figures/fig6c", "16", "UCR-IB") / g.num("figures/fig6c", "16", "SDP"))}},
		{"is SDP {}–{}× against the paper's ~5× (fig3b and fig3d); IPoIB {}–{}× matches", slices.Concat(
			g.factors(f1, "SDP", "UCR-IB", fig("fig3b", "fig3d")...),
			g.factors(f1, "IPoIB", "UCR-IB", fig("fig3b", "fig3d")...))},

		// Scaling, ablations, faults, pipeline.
		{"2, 4 and 8 workers all plateau at {} KTPS, 1/OpCost. Striping lifts the 8-worker deployment to {} KTPS, {}× that plateau", []string{
			same(g.cell("scaling/scaling: get", "2", "stripes=1"), g.cell("scaling/scaling: get", "4", "stripes=1"), g.cell("scaling/scaling: get", "8", "stripes=1")),
			g.cell("scaling/scaling: get", "8", "stripes=8"),
			f1(g.num("scaling/scaling: get", "8", "stripes=8") / g.num("scaling/scaling: get", "8", "stripes=1"))}},
		{"eagerly costs {} µs against {} rendezvous", []string{
			g.after("ablations/eager threshold", "65536", ""), g.after("ablations/eager threshold", "16384", "")}},
		{"One batch-draining worker serves {} KTPS", []string{g.after("ablations/worker threads", "1", "")}},
		{"the interrupt path costs {} µs more per small get", []string{
			f2(num(t, g.after("ablations/CQ polling", "events", "")) - num(t, g.after("ablations/CQ polling", "polling", "")))}},
		{"eight reach {} % of 32 clients' rate", []string{
			f0(100 * num(t, g.after("ablations/client scaling", "8", "")) / num(t, g.after("ablations/client scaling", "32", "")))}},
		{"moves the mean from {} µs only to {} µs", []string{
			g.cell(sweep, "UCR-IB 0.0", "mean(us)"), g.cell(sweep, "UCR-IB 10.0", "mean(us)")}},
		{"p99 is {} ms at 5 % and {} ms at 10 %", []string{
			f0(g.num(sweep, "IPoIB 5.0", "p99(us)") / 1e3), f0(g.num(sweep, "IPoIB 10.0", "p99(us)") / 1e3)}},
		{"64 B UCR reaches {}× depth 1 at depth 8", []string{f1(g.num(pipe64, "8", "UCR-IB") / g.num(pipe64, "1", "UCR-IB"))}},
		{"and 4 KB {}× at depth 4", []string{f1(g.num(pipe4k, "4", "UCR-IB") / g.num(pipe4k, "1", "UCR-IB"))}},

		// Connection scalability, write replies, fleet.
		{"RC costs a flat {} B per client", []string{same(
			g.cell(conn, "8", "rc"), g.cell(conn, "48", "rc"), g.cell(conn, "100", "rc"), g.cell(conn, "1000", "rc"), g.cell(conn, "10000", "rc"))}},
		{"at 10⁴ clients it undercuts RC {}×", []string{f0(g.num(conn, "10000", "rc") / g.num(conn, "10000", "srq"))}},
		{"its datagram reservations, {}× under RC", []string{f1(g.num(conn, "10000", "rc") / g.num(conn, "10000", "ud"))}},
		{"UD gives up {} % and the concentrator {} %", []string{loss("ud"), loss("mux")}},
		{"**At 4 KB the write path wins every depth**, by {}–{}×", g.factors(f2, "UCR-IB+WR", "UCR-IB", "wrreply/pipeline: 4096B")},
		{"wins only at depth 2, {} against {}", []string{
			g.cell("wrreply/pipeline: 1024B", "2", "UCR-IB+WR"), g.cell("wrreply/pipeline: 1024B", "2", "UCR-IB")}},
		{"64 KB favours the write path at every depth, {}–{}×", g.factors(f2, "UCR-IB+WR", "UCR-IB", "wrreply/pipeline: 65536B")},
		{"is at most {} % off 1/(N+1) at any N", []string{f0(fleetOff)}},
		{"gives {}× and {}× the KTPS; N=1000 serves {} KTPS", []string{
			f1(g.num(fleet, "100", "ktps") / g.num(fleet, "10", "ktps")),
			f1(g.num(fleet, "1000", "ktps") / g.num(fleet, "100", "ktps")),
			g.cell(fleet, "1000", "ktps")}},
	}

	var spans [][2]int // byte ranges of doc the quotes matched
	for _, q := range quotes {
		ms := quoteRegexp(q.text).FindAllStringSubmatchIndex(doc, -1)
		if len(ms) != 1 {
			t.Errorf("EXPERIMENTS.md says %q %d times, want once", q.text, len(ms))
			continue
		}
		m := ms[0]
		spans = append(spans, [2]int{m[0], m[1]})
		for i, want := range q.want {
			if got := doc[m[2+2*i]:m[3+2*i]]; got != want {
				t.Errorf("EXPERIMENTS.md quotes %s where the golden reads %s: %q", got, want, doc[m[0]:m[1]])
			}
		}
	}

	// Fig 5's claim: a mixed stream costs between its pure Set and Get.
	for _, mix := range []struct{ panel, set, get string }{
		{"fig5a", "fig3a", "fig3c"}, {"fig5c", "fig3a", "fig3c"},
		{"fig5b", "fig4a", "fig4c"}, {"fig5d", "fig4a", "fig4c"},
	} {
		p := g.panel("figures/" + mix.panel)
		for _, row := range p.rows() {
			for _, col := range p.columns()[1:] {
				v := g.num("figures/"+mix.panel, row, col)
				a, b := g.num("figures/"+mix.set, row, col), g.num("figures/"+mix.get, row, col)
				if v < min(a, b) || v > max(a, b) {
					t.Errorf("%s %s %s = %v is not between %s's %v and %s's %v", mix.panel, row, col, v, mix.set, a, mix.get, b)
				}
			}
		}
	}

	nums := tableNumbers(doc)
	for _, n := range nums {
		if !slices.ContainsFunc(spans, func(s [2]int) bool { return s[0] <= n.at && n.at < s[1] }) {
			t.Errorf("EXPERIMENTS.md line %d: table number %s is not in any quote TestExperimentsQuotesGolden reads back", n.line, n.text)
		}
	}
	if len(nums) == 0 {
		t.Fatal("EXPERIMENTS.md has no quoted table number: the coverage check is vacuous")
	}
}

// quoteRegexp compiles a quote's text: literal but for its {} (a number,
// captured) and its spaces (any run of whitespace).
func quoteRegexp(text string) *regexp.Regexp {
	parts := strings.Split(text, "{}")
	for i, p := range parts {
		parts[i] = strings.ReplaceAll(regexp.QuoteMeta(p), " ", `\s+`)
	}
	return regexp.MustCompile(strings.Join(parts, `([0-9][0-9.]*)`))
}

// tableNumber is a number in a Markdown table cell: its text, its byte
// offset in the document and its 1-based line.
type tableNumber struct {
	text     string
	at, line int
}

var numberToken = regexp.MustCompile(`\b[0-9]+(\.[0-9]+)?\b`)

// tableNumbers lists the numbers of the document's Markdown tables that
// must be quotes: not in the first column, not in a column headed
// "Paper …", and not under "## Trajectory".
func tableNumbers(doc string) []tableNumber {
	var out []tableNumber
	var header []string // the current table's column headings; nil outside a table
	history := false
	at := 0
	for i, line := range strings.SplitAfter(doc, "\n") {
		start := at
		at += len(line)
		if strings.HasPrefix(line, "## ") {
			history = strings.TrimSpace(line) == "## Trajectory"
		}
		if !strings.HasPrefix(line, "|") {
			header = nil
			continue
		}
		cells := strings.Split(strings.TrimSpace(line), "|")
		cells = cells[1 : len(cells)-1]
		switch {
		case header == nil:
			header = cells
			continue
		case strings.HasPrefix(line, "|---"), history:
			continue
		}
		off := start + 1 // past the leading |
		for c, cell := range cells {
			if c > 0 && c < len(header) && !strings.HasPrefix(strings.TrimSpace(header[c]), "Paper") {
				for _, m := range numberToken.FindAllStringIndex(cell, -1) {
					out = append(out, tableNumber{cell[m[0]:m[1]], off + m[0], i + 1})
				}
			}
			off += len(cell) + 1
		}
	}
	return out
}

// golden is studies.golden cut into panels, each a `# ` header line and
// the lines under it, named "<study>/<header text>": "figures/fig4c: Get
// latency, …", "wrreply/pipeline: 4096B values, …".
type golden struct {
	t      *testing.T
	panels []goldenPanel
}

type goldenPanel struct {
	id    string
	lines []string // the header text, then the lines under it
}

func loadGolden(t *testing.T) golden {
	g := golden{t: t}
	study := ""
	for _, line := range strings.Split(string(readFile(t, "testdata/studies.golden")), "\n") {
		switch {
		case strings.HasPrefix(line, "== study "):
			study = strings.Fields(line)[2]
		case strings.HasPrefix(line, "# "):
			g.panels = append(g.panels, goldenPanel{id: study + "/" + line[2:], lines: []string{line[2:]}})
		case strings.TrimSpace(line) != "" && len(g.panels) > 0:
			p := &g.panels[len(g.panels)-1]
			p.lines = append(p.lines, line)
		}
	}
	return g
}

// panel is the one panel whose name starts with id.
func (g golden) panel(id string) goldenPanel {
	g.t.Helper()
	var found []goldenPanel
	for _, p := range g.panels {
		if strings.HasPrefix(p.id, id) {
			found = append(found, p)
		}
	}
	if len(found) != 1 {
		g.t.Fatalf("%d golden panels are named %q…, want one", len(found), id)
	}
	return found[0]
}

// columns are a table panel's column headings: its first line under the
// header, split at runs of two or more spaces. A row with one field more
// than the headings has an unnamed label column.
func (p goldenPanel) columns() []string {
	return regexp.MustCompile(` {2,}`).Split(strings.TrimSpace(p.lines[1]), -1)
}

// rows are the label fields of a table panel's rows.
func (p goldenPanel) rows() []string {
	var out []string
	for _, l := range p.lines[2:] {
		out = append(out, strings.Fields(l)[0])
	}
	return out
}

// line is the fields after row of the panel's first line (the header
// text included) whose fields begin with row's.
func (g golden) line(p goldenPanel, row string, from int) []string {
	g.t.Helper()
	key := strings.Fields(row)
	for _, l := range p.lines[from:] {
		if f := strings.Fields(l); len(f) >= len(key) && slices.Equal(f[:len(key)], key) {
			return f
		}
	}
	g.t.Fatalf("golden panel %q has no row %q", p.id, row)
	return nil
}

// cell is a table panel's cell as the golden prints it.
func (g golden) cell(id, row, col string) string {
	g.t.Helper()
	p := g.panel(id)
	cols, f := p.columns(), g.line(p, row, 2)
	if len(f) == len(cols)+1 {
		cols = append([]string{""}, cols...)
	}
	c := slices.Index(cols, col)
	if c < 0 || len(f) != len(cols) {
		g.t.Fatalf("golden panel %q: no column %q in a row of %d fields under %q", p.id, col, len(f), cols)
	}
	return f[c]
}

func (g golden) num(id, row, col string) float64 { return num(g.t, g.cell(id, row, col)) }

// after is the field of a panel line that follows label, or the rest of
// a field label begins ("rc=" in "rc=1810404"); with label "", the field
// after the row's own.
func (g golden) after(id, row, label string) string {
	g.t.Helper()
	p := g.panel(id)
	f := g.line(p, row, 0)
	if label == "" {
		return f[len(strings.Fields(row))]
	}
	for i, field := range f {
		switch {
		case field == label && i+1 < len(f):
			return f[i+1]
		case strings.HasPrefix(field, label) && field != label:
			return field[len(label):]
		}
	}
	g.t.Fatalf("golden panel %q, row %q has no %q", p.id, row, label)
	return ""
}

// factors is the range, low then high, of column num over column den
// across every row of the panels, each formatted by format.
func (g golden) factors(format func(float64) string, num, den string, ids ...string) []string {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, id := range ids {
		for _, row := range g.panel(id).rows() {
			f := g.num(id, row, num) / g.num(id, row, den)
			lo, hi = min(lo, f), max(hi, f)
		}
	}
	return []string{format(lo), format(hi)}
}

// same is the one value all of vs print, or a note that they differ.
func same(vs ...string) string {
	for _, v := range vs[1:] {
		if v != vs[0] {
			return fmt.Sprintf("(not one value: %v)", vs)
		}
	}
	return vs[0]
}

func num(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("golden cell %q is not a number", s)
	}
	return v
}

func readFile(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
