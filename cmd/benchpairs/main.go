// benchpairs measures the working tree against a parent commit on the
// repo's benchmark, in alternating pairs: it exports the parent's
// committed files with git archive, builds ./benchmark there and in the
// working tree, and runs each workload -pairs times on both sides, the
// side that goes first alternating from pair to pair. Every run uses the
// same -seconds and -seed. For each metric it prints both sides' median
// and quartiles, how many pairs the change won (ties count for neither)
// and a verdict against the metric's bound in BENCHMARK.json; then each
// side's failed/attempted. It reads benchmark/ and writes nothing in the
// repo.
//
// Verdicts, in the order they are decided:
//
//	worse       the change's median is worse than the parent's by more than the bound
//	better      the change won ≥ 9/10 of the pairs and the medians differ by more than the parent's IQR
//	unresolved  a side's IQR exceeds the bound, and not every change run beats every parent run
//	same        none of these
//
// It exits 1 when a metric is worse or the change fails a larger share
// of its operations than the parent.
//
// With -gobench <pkg>:<regexp> it runs a package's Go benchmarks instead
// (go test -bench <regexp> -benchtime <seconds>s in <pkg>), in the same
// alternating pairs, and prints per benchmark each side's median and
// quartiles of ns/op and vns/op and the pairs the change won. Both sides
// run the working tree's test files of <pkg>, copied over the parent's,
// so they differ only in product code and a benchmark added by the
// change runs at the parent too.
//
//	go run ./cmd/benchpairs -parent HEAD~1 -workload ucr_get4k_w4 -pairs 10 -seconds 15 -seed 7
//	go run ./cmd/benchpairs -parent main                       # every workload in BENCHMARK.json
//	go run ./cmd/benchpairs -parent HEAD~1 -gobench ./internal/mcclient:'UCRGetInto$' -seconds 2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

func main() {
	var (
		parent   = flag.String("parent", "", "git revision to compare the working tree against (required)")
		workload = flag.String("workload", "", "comma-separated workload names (default: every workload in BENCHMARK.json)")
		pairs    = flag.Int("pairs", 10, "pairs of runs per workload")
		seconds  = flag.Int("seconds", 15, "the benchmark's -seconds for every run")
		seed     = flag.Uint64("seed", 42, "the benchmark's -seed for every run")
		gobench  = flag.String("gobench", "", "<pkg>:<regexp>: run that package's Go benchmarks instead of the repo's benchmark")
	)
	flag.Parse()
	if *parent == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "benchpairs: -parent is required and -pairs must be at least 1")
		os.Exit(2)
	}
	var worse bool
	var err error
	if *gobench != "" {
		err = runGoBench(os.Stdout, *parent, *gobench, *pairs, *seconds)
	} else {
		worse, err = run(os.Stdout, *parent, *workload, *pairs, *seconds, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(2)
	}
	if worse {
		os.Exit(1)
	}
}

// spec is the part of BENCHMARK.json benchpairs reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is the JSON line the benchmark prints last in driver mode.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// side is one build of the benchmark and the checkout it runs in.
type side struct {
	name, dir, bin string
}

func run(w io.Writer, parent, workloads string, pairs, seconds int, seed uint64) (worse bool, err error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("run from the root of the repo: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	names := strings.Split(workloads, ",")
	if workloads == "" {
		names = names[:0]
		for _, wl := range sp.Workloads {
			names = append(names, wl.Name)
		}
	}

	tmp, err := os.MkdirTemp("", "benchpairs-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	old, cur, err := checkouts(parent, tmp)
	if err != nil {
		return false, err
	}
	for _, s := range []side{old, cur} {
		if err := build(s); err != nil {
			return false, err
		}
	}

	for _, name := range names {
		runs := [2][]result{}
		for i := 0; i < pairs; i++ {
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			for _, k := range order {
				r, err := bench([]side{old, cur}[k], name, seconds, seed)
				if err != nil {
					return false, err
				}
				runs[k] = append(runs[k], r)
			}
		}
		fmt.Fprintf(w, "== %s: %s vs %s, %d pairs, -seconds %d -seed %d\n", name, old.name, cur.name, pairs, seconds, seed)
		if report(w, sp.EndToEnd, runs[0], runs[1]) {
			worse = true
		}
	}
	return worse, nil
}

// checkouts exports parent's committed files under tmp and names the
// two sides, each with a binary path under tmp.
func checkouts(parent, tmp string) (old, cur side, err error) {
	old = side{name: "parent " + parent, dir: filepath.Join(tmp, "parent"), bin: filepath.Join(tmp, "parent.bin")}
	if err := export(parent, old.dir); err != nil {
		return old, cur, err
	}
	wd, err := os.Getwd()
	cur = side{name: "working tree", dir: wd, bin: filepath.Join(tmp, "change.bin")}
	return old, cur, err
}

// export writes rev's committed files into dir.
func export(rev, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	archive := exec.Command("git", "archive", "--format=tar", rev)
	untar := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	archive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	if err := untar.Wait(); err != nil {
		return fmt.Errorf("extracting %s: %w", rev, err)
	}
	return nil
}

func build(s side) error {
	cmd := exec.Command("go", "build", "-o", s.bin, "./benchmark")
	cmd.Dir = s.dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=-buildvcs=false")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building the benchmark at the %s: %w", s.name, err)
	}
	return nil
}

// bench runs one workload once and parses the result line.
func bench(s side, workload string, seconds int, seed uint64) (result, error) {
	cmd := exec.Command(s.bin, "-workload", workload, "-seconds", fmt.Sprint(seconds), "-seed", fmt.Sprint(seed), "-trace", "0")
	cmd.Dir = s.dir
	cmd.Env = append(os.Environ(), "BENCH_COMMIT="+s.name)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s, %s: %w", s.name, workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return result{}, fmt.Errorf("%s, %s: result line: %w", s.name, workload, err)
	}
	if !r.Correct {
		return result{}, fmt.Errorf("%s, %s: the benchmark reports an incorrect result", s.name, workload)
	}
	return r, nil
}

// report prints one workload's table and says whether the change is
// worse on it.
func report(w io.Writer, metrics []metricSpec, old, cur []result) (worse bool) {
	fmt.Fprintf(w, "%-20s %-7s %-34s %-34s %8s %6s  %s\n", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "Δ", "wins", "verdict")
	for _, m := range metrics {
		a, b := values(old, m.Name), values(cur, m.Name)
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		v := judge(m, a, b)
		if v.verdict == "worse" {
			worse = true
		}
		fmt.Fprintf(w, "%-20s %-7s %-34s %-34s %+7.2f%% %3d/%-2d  %s\n", m.Name, m.Unit,
			quartiles(a), quartiles(b), v.delta*100, v.wins, len(a), v.verdict)
	}
	fa, aa := failures(old)
	fb, ab := failures(cur)
	fmt.Fprintf(w, "failed/attempted: parent %d/%d, change %d/%d\n", fa, aa, fb, ab)
	if float64(fb)*float64(aa) > float64(fa)*float64(ab) {
		worse = true
	}
	return worse
}

func values(runs []result, metric string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

func failures(runs []result) (failed, attempted int64) {
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}

type judgement struct {
	delta   float64 // change median relative to the parent's, signed
	wins    int     // pairs the change read strictly better
	verdict string
}

// judge compares the pairs of one metric (a[i] the parent's run, b[i]
// the change's run of pair i) by the rules in the package comment.
func judge(m metricSpec, a, b []float64) judgement {
	better := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	var j judgement
	for i := range min(len(a), len(b)) {
		if better(b[i], a[i]) {
			j.wins++
		}
	}
	sa, sb := sorted(a), sorted(b)
	ma, mb := quantile(sa, 0.5), quantile(sb, 0.5)
	if ma != 0 {
		j.delta = (mb - ma) / math.Abs(ma)
	}
	iqr := func(s []float64) float64 { return quantile(s, 0.75) - quantile(s, 0.25) }
	worseBy := j.delta
	if m.Better == "higher" {
		worseBy = -j.delta
	}
	switch {
	case worseBy > m.Bound:
		j.verdict = "worse"
	case better(mb, ma) && 10*j.wins >= 9*len(a) && math.Abs(mb-ma) > iqr(sa):
		j.verdict = "better"
	case (iqr(sa) > m.Bound*math.Abs(ma) || iqr(sb) > m.Bound*math.Abs(mb)) && !allBetter(m, sa, sb):
		j.verdict = "unresolved"
	default:
		j.verdict = "same"
	}
	return j
}

// allBetter reports whether the change's worst run beats the parent's
// best (sa, sb sorted).
func allBetter(m metricSpec, sa, sb []float64) bool {
	if m.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func sorted(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// quantile interpolates linearly between the order statistics of s.
func quantile(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func quartiles(v []float64) string {
	s := sorted(v)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75))
}
