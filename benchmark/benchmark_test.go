package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mcclient"
	"repro/internal/simnet"
)

// smoke is every workload and every probe at about 1/1000 of the fixed
// op counts.
func smoke(t *testing.T) config {
	t.Helper()
	return config{seed: 42, scale: 1000, outDir: t.TempDir()}
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	cfg := smoke(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			res, err := runEndToEnd(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkValues(t, res, endToEnd)
			for _, m := range endToEnd {
				if res.values[m.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, res.values[m.Name])
				}
			}

			tr, err := runTraced(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkValues(t, &tr.result, perLayer)
			checkAttribution(t, w, tr)
			checkSpanFile(t, tr.spanFile, tr.tracedOps)
		})
	}
}

// checkValues: every named metric present, finite and unit-tagged, and
// no op failed the oracle.
func checkValues(t *testing.T, res *result, names []metric) {
	t.Helper()
	if res.attempted < 1 || res.failed != 0 {
		t.Errorf("attempted %d, failed %d; want ≥ 1 and 0", res.attempted, res.failed)
	}
	for _, m := range names {
		v, ok := res.values[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
		} else if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s = %v", m.Name, v)
		}
		if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s lacks a unit or direction", m.Name)
		}
	}
	if len(res.values) != len(names) {
		t.Errorf("%d values for %d named metrics", len(res.values), len(names))
	}
}

// checkAttribution: the layer self costs and the unattributed remainder
// sum to the untraced per-op time on both clocks.
func checkAttribution(t *testing.T, w *workload, tr *tracedResult) {
	t.Helper()
	v := tr.values
	base := "ucr.am_rtt"
	if w.Transport != cluster.UCRIB {
		base = "sockstream.rtt"
	}
	wall := v["mcclient.client_self_wall_ns"] + v["mcclient.transport_self_wall_ns"] +
		v["memcached.serve_self_wall_ns"] + v[base+"_wall_ns"] + v["benchmark.unattributed_wall_ns"]
	if w.Kind == kindFleet {
		wall += v["cluster.fleet_self_wall_ns"]
	}
	model := tr.spans[spanClientGet].selfModel + v["mcclient.transport_self_model_ns"] +
		v["memcached.serve_self_model_ns"] + v[base+"_model_ns"] + v["benchmark.unattributed_model_ns"]
	if math.Abs(wall-tr.wallPerOp) > 1e-6*tr.wallPerOp {
		t.Errorf("host self costs sum to %v, per-op time is %v", wall, tr.wallPerOp)
	}
	if math.Abs(model-tr.modelPerOp) > 1e-6*tr.modelPerOp {
		t.Errorf("virtual self costs sum to %v, per-op time is %v", model, tr.modelPerOp)
	}
	if got := v["ucr.self_model_ns"] + v["verbs.pingpong_model_ns"]; got != v["ucr.am_rtt_model_ns"] {
		t.Errorf("ucr.self + verbs.pingpong = %v, ucr.am_rtt = %v", got, v["ucr.am_rtt_model_ns"])
	}
}

// checkSpanFile re-reads the written spans: unique ids, one op span per
// traced op, every child inside its parent on both clocks.
func checkSpanFile(t *testing.T, path string, ops int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[uint32]map[string]any{}
	roots := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var s map[string]any
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		id := uint32(s["id"].(float64))
		if _, dup := byID[id]; dup {
			t.Fatalf("span id %d appears twice", id)
		}
		byID[id] = s
		if s["name"] == "" || s["layer"] == "" {
			t.Fatalf("span %d lacks a name or layer", id)
		}
		parent := uint32(s["parent"].(float64))
		if parent == 0 {
			roots++
			continue
		}
		p, ok := byID[parent]
		if !ok {
			t.Fatalf("span %d names unknown parent %d", id, parent)
		}
		if s["op"] != p["op"] {
			t.Fatalf("span %d and its parent disagree on the op id", id)
		}
		for _, clock := range []string{"wall", "model"} {
			if num(s, clock+"_start_ns") < num(p, clock+"_start_ns") || num(s, clock+"_end_ns") > num(p, clock+"_end_ns") {
				t.Fatalf("span %d leaves its parent on the %s clock", id, clock)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if roots != ops {
		t.Errorf("%d op spans for %d traced ops", roots, ops)
	}
}

func num(m map[string]any, k string) float64 { return m[k].(float64) }

// flipTransport corrupts one byte of its n-th GET reply.
type flipTransport struct {
	mcclient.Transport
	n int
}

func (f *flipTransport) Get(clk *simnet.VClock, key string) ([]byte, uint32, uint64, bool, error) {
	v, fl, cas, ok, err := f.Transport.Get(clk, key)
	if f.n--; f.n == 0 && len(v) > 0 {
		v[len(v)/2] ^= 0x01
	}
	return v, fl, cas, ok, err
}

func TestOracleCatchesOneFlippedByte(t *testing.T) {
	w := workloadByName("ucr_small_d1")
	r, err := setup(w, newInputs(w, 7))
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	s := r.steppers[0].(*blockingStepper)
	s.mc, err = mcclient.New(s.clk, mcclient.DefaultBehaviors(), []mcclient.Transport{
		&flipTransport{Transport: s.mc.Transport(0), n: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := r.measure(200, nil)
	if p.tally.corrupt != 1 || p.tally.failed() != 1 {
		t.Fatalf("oracle counted %d corrupt replies and %d failures, want 1 and 1", p.tally.corrupt, p.tally.failed())
	}
	if ratio := float64(p.tally.failed()) / float64(p.ops); ratio <= 0 {
		t.Fatalf("fail_ratio = %v, want > 0", ratio)
	}
}

func TestSpanCheckRejectsEscapingChild(t *testing.T) {
	clk := simnet.NewVClock(0)
	rec := newRecorder(1)
	op := rec.begin(spanOpGet, 0, clk)
	child := rec.begin(spanClientGet, op, clk)
	rec.end(op, clk)
	clk.Advance(10)
	rec.end(child, clk)
	if err := rec.check(); err == nil {
		t.Fatal("a child ending after its parent passed the span check")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	w := workloadByName("ucr_fanin16_zipf")
	a, b, c := newInputs(w, 5), newInputs(w, 5), newInputs(w, 6)
	sa, sb := a.schedule(3), b.schedule(3)
	for i := 0; i < 1000; i++ {
		aSet, ak := sa.next()
		bSet, bk := sb.next()
		if aSet != bSet || ak != bk || a.keys[ak] != b.keys[bk] {
			t.Fatalf("draw %d differs between two runs of one seed", i)
		}
	}
	if a.keys[0] == c.keys[0] {
		t.Error("seeds 5 and 6 derive the same keys")
	}
	if string(value("k", 64)) != string(value("k", 64)) || string(value("k", 64)) == string(value("l", 64)) {
		t.Error("value(key) is not a pure function of the key")
	}
}

func TestHistQuantiles(t *testing.T) {
	h := newHist()
	for v := int64(1); v <= 1000; v++ {
		h.add(v)
	}
	h.add(1 << 20)
	if got := h.quantile(0.5); got != 501 {
		t.Errorf("p50 = %v, want 501", got)
	}
	if got := h.quantile(1); got != 1<<20 {
		t.Errorf("max = %v, want %v", got, 1<<20)
	}
	if got, want := h.mean(), (500500.0+(1<<20))/1001; got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
}

// The driver reads names, units and bounds from BENCHMARK.json and the
// program emits them from its tables; the two must say the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].Name)
		}
	}
	for _, pair := range []struct {
		kind      string
		doc, prog []metric
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(pair.doc) != len(pair.prog) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", pair.kind, len(pair.doc), len(pair.prog))
		}
		for i := range pair.doc {
			if pair.doc[i] != pair.prog[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", pair.kind, i, pair.doc[i], pair.prog[i])
			}
		}
	}
}
