package bench

import "testing"

// TestOneSidedBeatsAMSmallValues is the PR's acceptance bar: for small
// values on a single client, the RDMA-read GET must have lower mean
// latency than the AM GET — the client trades the server's dispatch +
// op cost plus the reply AM for reads its own HCA drives.
func TestOneSidedBeatsAMSmallValues(t *testing.T) {
	cfg := RunConfig{OpsPerPoint: 40, keySpace: 8}
	for _, size := range []int{4, 64, 1024} {
		osUs, err := oneSidedLatencyPoint(size, true, cfg)
		if err != nil {
			t.Fatal(err)
		}
		amUs, err := oneSidedLatencyPoint(size, false, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%dB: one-sided %.2f us, AM %.2f us (%.2fx)", size, osUs, amUs, amUs/osUs)
		if osUs <= 0 || amUs <= 0 {
			t.Fatalf("%dB: degenerate latencies: one-sided %v, AM %v", size, osUs, amUs)
		}
		if osUs >= amUs {
			t.Errorf("%dB: one-sided GET (%.2f us) did not beat AM GET (%.2f us)", size, osUs, amUs)
		}
	}
}

// TestOneSidedSweepShape runs a trimmed sweep end to end and checks the
// report invariants the JSON consumers rely on.
func TestOneSidedSweepShape(t *testing.T) {
	rep, err := OneSidedSweep([]int{64, 65536}, RunConfig{OpsPerPoint: 10, keySpace: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.points) != 2 {
		t.Fatalf("points = %+v", rep.points)
	}
	for _, pt := range rep.points {
		if pt.oneSidedUs <= 0 || pt.amUs <= 0 || pt.speedup <= 0 {
			t.Fatalf("degenerate point: %+v", pt)
		}
	}
	if len(rep.tps) == 0 {
		t.Fatal("no TPS points")
	}
	for _, pt := range rep.tps {
		if pt.oneSidedTPS <= 0 || pt.amtps <= 0 {
			t.Fatalf("degenerate TPS point: %+v", pt)
		}
	}
	out := OneSidedTable(rep)
	if out == "" {
		t.Fatal("empty table")
	}
}
