package bench

import (
	"strings"
	"testing"

	"repro/internal/cluster"
)

func TestAblationEagerThreshold(t *testing.T) {
	cfg := RunConfig{OpsPerPoint: 8, keySpace: 4}
	// 16 KB values: below an 8 KB threshold they rendezvous; with a
	// 64 KB threshold they pack eagerly.
	res, err := AblationEagerThreshold(16*1024, []int{1024, 8192, 65536}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("res = %v", res)
	}
	for th, us := range res {
		if us <= 0 {
			t.Fatalf("threshold %d: %v us", th, us)
		}
	}
	t.Logf("eager threshold sweep (16KB gets): %v", res)
}

func TestAblationWorkerCount(t *testing.T) {
	cfg := RunConfig{OpsPerPoint: 30, keySpace: 8}
	res, err := AblationWorkerCount([]int{1, 4}, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res[4] <= res[1] {
		t.Fatalf("more workers did not help: %v", res)
	}
	out := AblationResultString("workers", res, "KTPS")
	if !strings.Contains(out, "KTPS") {
		t.Fatal("bad table")
	}
}

func TestAblationPollingVsEvents(t *testing.T) {
	cfg := RunConfig{OpsPerPoint: 10, keySpace: 4}
	poll, ev, err := AblationPollingVsEvents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// §II-A1: polling yields the lowest latency.
	if ev <= poll {
		t.Fatalf("events (%v us) should be slower than polling (%v us)", ev, poll)
	}
}

func TestAblationRCvsUD(t *testing.T) {
	cfg := RunConfig{OpsPerPoint: 10, keySpace: 4}
	rc, ud, err := AblationRCvsUD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rc <= 0 || ud <= 0 {
		t.Fatalf("rc=%v ud=%v", rc, ud)
	}
	t.Logf("RC=%v us, UD=%v us", rc, ud)
}

func TestAblationCounterAcks(t *testing.T) {
	nullUs, complUs, acksNull, acksCompl, err := AblationCounterAcks(20)
	if err != nil {
		t.Fatal(err)
	}
	// §IV-C: NULL counters suppress the optional internal message.
	if acksNull != 0 {
		t.Fatalf("NULL-counter exchange produced %d acks", acksNull)
	}
	if acksCompl == 0 {
		t.Fatal("completion counter produced no acks")
	}
	if complUs <= nullUs {
		t.Fatalf("completion-counter round trip (%v) should cost more than NULL (%v)", complUs, nullUs)
	}
}

func TestMGetSweepBatchingWins(t *testing.T) {
	p := cluster.ClusterB()
	res, err := MGetSweep(p, []cluster.Transport{cluster.UCRIB, cluster.IPoIB}, 16, 64, RunConfig{OpsPerPoint: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("res = %+v", res)
	}
	for _, r := range res {
		if r.BatchedUs >= r.SinglesUs {
			t.Errorf("%s: batched mget (%v us) not faster than %v us of singles", r.Transport, r.BatchedUs, r.SinglesUs)
		}
		if r.Improvement < 2 {
			t.Errorf("%s: batching improvement only %.1fx", r.Transport, r.Improvement)
		}
		t.Logf("%s: 16 singles %.1f us vs one mget %.1f us (%.1fx)", r.Transport, r.SinglesUs, r.BatchedUs, r.Improvement)
	}
}

// TestClientScaling is the ablations study's client-scaling line: UCR-IB
// 4 B gets, TPS growing with the client count.
func TestClientScaling(t *testing.T) {
	p := cluster.ClusterB()
	res, err := TPSSweep(p, []cluster.Transport{cluster.UCRIB}, []int{4, 16}, 4, RunConfig{OpsPerPoint: 30})
	if err != nil {
		t.Fatal(err)
	}
	if tps := res[cluster.UCRIB]; tps[1] <= tps[0] {
		t.Fatalf("TPS did not grow with clients: %v", tps)
	}
}

func TestSRQFootprintAblation(t *testing.T) {
	// Per-endpoint windows grow linearly with clients; the SRQ pool is
	// fixed, so it wins past a crossover (§VII's scalability argument).
	p := cluster.ClusterB()
	footprint := func(mode string, n int) int64 {
		t.Helper()
		b, err := ConnScaleFootprint(p, mode, n, RunConfig{OpsPerPoint: 1})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	perEPSmall, srqSmall := footprint("rc", 4), footprint("srq", 4)
	perEPBig, srqBig := footprint("rc", 32), footprint("srq", 32)
	if perEPBig <= perEPSmall {
		t.Fatalf("per-endpoint footprint should grow: %d then %d", perEPSmall, perEPBig)
	}
	if srqBig != srqSmall {
		t.Fatalf("SRQ footprint should stay flat: %d then %d", srqSmall, srqBig)
	}
	if srqBig >= perEPBig {
		t.Fatalf("at 32 clients SRQ (%d) should undercut windows (%d)", srqBig, perEPBig)
	}
	t.Logf("4 clients: windows %d vs SRQ %d; 32 clients: windows %d vs SRQ %d",
		perEPSmall, srqSmall, perEPBig, srqBig)
}
