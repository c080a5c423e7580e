package main

import (
	"reflect"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for q, want := range map[float64]float64{0: 1, 0.25: 1.75, 0.5: 2.5, 0.75: 3.25, 1: 4} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(%v, %v) = %v, want %v", s, q, got, want)
		}
	}
}

// Each verdict the package comment lists, on pairs that decide it.
func TestJudgeVerdicts(t *testing.T) {
	ktps := metricSpec{Name: "model_ktps", Better: "higher", Bound: 0.05}
	wall := metricSpec{Name: "wall_ns_per_op", Better: "lower", Bound: 0.25}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
		wins int
	}{
		{"identical runs", ktps, []float64{401.9, 401.9, 401.9}, []float64{401.9, 401.9, 401.9}, "same", 0},
		{"higher in every pair", ktps, []float64{401.9, 401.9, 401.9}, []float64{515.6, 515.6, 515.6}, "better", 3},
		{"higher in two of three", ktps, []float64{400, 401, 402}, []float64{410, 411, 399}, "same", 2},
		{"slower past the bound", wall, []float64{2700, 2800, 2750}, []float64{3600, 3500, 3550}, "worse", 0},
		{"spread wider than the bound", wall, []float64{2000, 2800, 4000}, []float64{2100, 2900, 3900}, "unresolved", 1},
		{"wide spread, every change run faster", wall, []float64{3000, 4000, 5000}, []float64{1000, 2000, 2900}, "better", 3},
	} {
		j := judge(c.m, c.a, c.b)
		if j.verdict != c.want || j.wins != c.wins {
			t.Errorf("%s: verdict %s with %d wins, want %s with %d", c.name, j.verdict, j.wins, c.want, c.wins)
		}
	}
}

func TestParseGoBench(t *testing.T) {
	out := []byte(`goos: linux
BenchmarkUCRGetInto-2             	  992457	      1167 ns/op	       0 B/op	       0 allocs/op
BenchmarkUCRPipelineGetInto4K-2   	  702812	      1687 ns/op	      2097 vns/op	     160 B/op	       1 allocs/op
BenchmarkLookup   	  100	      12.5 ns/op
PASS
`)
	got := parseGoBench(out)
	want := []goBenchResult{
		{"BenchmarkUCRGetInto", map[string]float64{"ns/op": 1167}},
		{"BenchmarkUCRPipelineGetInto4K", map[string]float64{"ns/op": 1687, "vns/op": 2097}},
		{"BenchmarkLookup", map[string]float64{"ns/op": 12.5}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseGoBench = %+v, want %+v", got, want)
	}
}
