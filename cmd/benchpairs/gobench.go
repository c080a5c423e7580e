package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// goBenchUnits are the per-op figures -gobench reports: host time and
// the virtual time the layer benchmarks add with b.ReportMetric.
var goBenchUnits = []string{"ns/op", "vns/op"}

// runGoBench is -gobench: target is <pkg>:<regexp>.
func runGoBench(w io.Writer, parent, target string, pairs, seconds int) error {
	pkg, re, ok := strings.Cut(target, ":")
	if !ok || pkg == "" || re == "" {
		return fmt.Errorf("-gobench %q: want <pkg>:<regexp>", target)
	}
	pkg = filepath.Clean(pkg)
	tmp, err := os.MkdirTemp("", "benchpairs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	old, cur, err := checkouts(parent, tmp)
	if err != nil {
		return err
	}
	tests, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
	if err != nil {
		return err
	}
	for _, f := range tests {
		raw, err := os.ReadFile(f)
		if err == nil {
			err = os.WriteFile(filepath.Join(old.dir, f), raw, 0o644)
		}
		if err != nil {
			return fmt.Errorf("copying %s to the parent: %w", f, err)
		}
	}
	sides := []side{old, cur}
	for _, s := range sides {
		cmd := exec.Command("go", "test", "-c", "-o", s.bin, "./"+pkg)
		cmd.Dir = s.dir
		cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=-buildvcs=false")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("building %s's tests at the %s: %w", pkg, s.name, err)
		}
	}
	// runs[k][bench][unit] lists side k's values, one per pair.
	runs := [2]map[string]map[string][]float64{{}, {}}
	var names []string
	for i := 0; i < pairs; i++ {
		for j := range sides {
			k := j ^ i%2 // the side going first alternates
			cmd := exec.Command(sides[k].bin, "-test.run", "^$", "-test.bench", re, "-test.benchtime", fmt.Sprintf("%ds", seconds))
			cmd.Dir = filepath.Join(sides[k].dir, pkg)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s, %s: %w", sides[k].name, target, err)
			}
			for _, r := range parseGoBench(out) {
				if k == 0 && runs[0][r.name] == nil {
					names = append(names, r.name)
				}
				if runs[k][r.name] == nil {
					runs[k][r.name] = map[string][]float64{}
				}
				for unit, v := range r.vals {
					runs[k][r.name][unit] = append(runs[k][r.name][unit], v)
				}
			}
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("-gobench %q: no benchmark ran at the parent", target)
	}
	fmt.Fprintf(w, "== %s: %s vs %s, %d pairs, -benchtime %ds\n", target, old.name, cur.name, pairs, seconds)
	fmt.Fprintf(w, "%-40s %-7s %-34s %-34s %8s %6s\n", "benchmark", "unit", "parent median [q1, q3]", "change median [q1, q3]", "Δ", "wins")
	for _, name := range names {
		for _, unit := range goBenchUnits {
			a, b := runs[0][name][unit], runs[1][name][unit]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			j := judge(metricSpec{Better: "lower"}, a, b)
			fmt.Fprintf(w, "%-40s %-7s %-34s %-34s %+7.2f%% %3d/%-2d\n", name, unit, quartiles(a), quartiles(b), j.delta*100, j.wins, len(a))
		}
	}
	return nil
}

// goBenchResult is one result line of go test -bench: the benchmark's
// name without the -GOMAXPROCS suffix, and its value in each of
// goBenchUnits it reports.
type goBenchResult struct {
	name string
	vals map[string]float64
}

// parseGoBench reads go test -bench output, in order.
func parseGoBench(out []byte) []goBenchResult {
	var res []goBenchResult
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		vals := map[string]float64{}
		for i := 2; i+1 < len(f); i += 2 { // f[1] is the iteration count
			if v, err := strconv.ParseFloat(f[i], 64); err == nil && slices.Contains(goBenchUnits, f[i+1]) {
				vals[f[i+1]] = v
			}
		}
		if len(vals) > 0 {
			res = append(res, goBenchResult{name, vals})
		}
	}
	return res
}
