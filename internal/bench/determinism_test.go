package bench

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"repro/internal/cluster"
)

// TestClosedLoopPureFunction pins the paper's headline throughput cell
// (§VI-D, Fig 6c: "around 1.8 Million operations/sec" for 4-byte Gets
// from 16 clients on QDR) as a pure function of its inputs: the same
// float bits twice in one process and at any GOMAXPROCS, and the same
// rate however long the run (late clients once fell behind the server's
// resource bookkeeping, so the rate sank as OpsPerPoint grew).
func TestClosedLoopPureFunction(t *testing.T) {
	point := func(ops int) float64 {
		t.Helper()
		tps, err := tpsPoint(cluster.ClusterB(), cluster.UCRIB, 16, 4, RunConfig{OpsPerPoint: ops})
		if err != nil {
			t.Fatal(err)
		}
		return tps
	}
	want := point(50)
	for _, procs := range []int{1, 4, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := point(50)
		runtime.GOMAXPROCS(prev)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("GOMAXPROCS=%d: %v TPS, first run %v: not a pure function", procs, got, want)
		}
	}
	if long := point(1000); math.Abs(long-want) > 0.02*want {
		t.Errorf("TPS moves with run length: %.0f at 50 ops/client, %.0f at 1000", want, long)
	}
	if math.Abs(want-1.8e6) > 0.05*1.8e6 {
		t.Errorf("16-client 4-byte Get TPS on QDR = %.0f, paper: around 1.8 million", want)
	}
}

// TestEndToEndFigureSmoke runs one full evaluation panel end to end
// and asserts the paper's ordering on every point: UCR < every
// sockets path.
func TestEndToEndFigureSmoke(t *testing.T) {
	spec, ok := FigureByID("fig4c")
	if !ok {
		t.Fatal("fig4c missing")
	}
	fig, err := spec.Run(RunConfig{OpsPerPoint: 8, keySpace: 4})
	if err != nil {
		t.Fatal(err)
	}
	ucr := fig.series["UCR-IB"]
	for _, base := range []string{"IPoIB", "SDP"} {
		vals := fig.series[base]
		for i := range ucr {
			if ucr[i] >= vals[i] {
				t.Errorf("%s @%s: UCR %.2f >= %s %.2f", fig.id, fig.xTicks[i], ucr[i], base, vals[i])
			}
		}
	}
}

// TestFig6PaperOrderings asserts what the paper reads off Fig 6: UCR-IB
// above every sockets transport on all four panels; on cluster A the
// 10GigE TOE above IPoIB and SDP, and on cluster B SDP below IPoIB (the
// SDP-on-QDR artifact), for 4-byte Gets.
func TestFig6PaperOrderings(t *testing.T) {
	above := func(fig *Figure, hi, lo string) {
		t.Helper()
		for i, tick := range fig.xTicks {
			if fig.series[hi][i] <= fig.series[lo][i] {
				t.Errorf("%s at %s clients: %s %.2f not above %s %.2f KTPS",
					fig.id, tick, hi, fig.series[hi][i], lo, fig.series[lo][i])
			}
		}
	}
	for _, id := range []string{"fig6a", "fig6b", "fig6c", "fig6d"} {
		spec, _ := FigureByID(id)
		fig, err := spec.Run(RunConfig{OpsPerPoint: 20})
		if err != nil {
			t.Fatal(err)
		}
		for _, sockets := range fig.SeriesOrder[1:] {
			above(fig, string(cluster.UCRIB), sockets)
		}
		switch id {
		case "fig6a":
			const toe = "10GigE-TOE" // cluster A's 10 GigE TOE series
			above(fig, toe, string(cluster.IPoIB))
			above(fig, toe, string(cluster.SDP))
		case "fig6c":
			above(fig, string(cluster.IPoIB), string(cluster.SDP))
		}
	}
}

// TestFigureIndependentOfHistory: a panel's text does not depend on what
// the process ran before it (SDP's jitter streams were once seeded from
// a process-wide endpoint counter).
func TestFigureIndependentOfHistory(t *testing.T) {
	render := func(id string) []byte {
		t.Helper()
		spec, _ := FigureByID(id)
		fig, err := spec.Run(RunConfig{OpsPerPoint: 10})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteTable(&buf, fig); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	alone := render("fig4c")
	render("fig3a")
	if after := render("fig4c"); !bytes.Equal(alone, after) {
		t.Errorf("fig4c after fig3a differs from fig4c alone:\n%s\nvs\n%s", after, alone)
	}
}

// TestBenchSpawnsNoGoroutines: a multi-client point runs on the calling
// goroutine alone. A sampler watches the goroutine count while the point
// runs; it is the one goroutine allowed above the baseline.
func TestBenchSpawnsNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	stop := make(chan struct{})
	peak := make(chan int)
	go func() {
		max := 0
		for {
			select {
			case <-stop:
				peak <- max
				return
			default:
				if n := runtime.NumGoroutine(); n > max {
					max = n
				}
				runtime.Gosched()
			}
		}
	}()
	_, err := tpsPoint(cluster.ClusterB(), cluster.UCRIB, 16, 4, RunConfig{OpsPerPoint: 200})
	close(stop)
	if err != nil {
		t.Fatal(err)
	}
	if got := <-peak; got > base+1 {
		t.Errorf("%d goroutines while TPSPoint ran, %d before it", got-1, base)
	}
}
