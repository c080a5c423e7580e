package bench

import (
	"strings"
	"testing"

	"repro/internal/cluster"
)

// TestConnScaleAcceptance pins the §VII scalability claims end to end:
// at 10⁴ live clients the shared-SRQ server's per-connection
// receive-buffer bytes sit at least 10× below the RC-per-client
// baseline, while at 10² live clients shared-SRQ aggregate TPS gives up
// no more than 10% against RC.
func TestConnScaleAcceptance(t *testing.T) {
	rep, err := ConnScaleSweep(cluster.ClusterB(), RunConfig{OpsPerPoint: 10})
	if err != nil {
		t.Fatalf("ConnScaleSweep: %v", err)
	}
	for _, mode := range connScaleModes {
		if got := len(rep.recvBytes[mode]); got != len(connScaleCounts) {
			t.Fatalf("%s: %d footprints, want one per count (%d)", mode, got, len(connScaleCounts))
		}
	}

	// Per-client bytes at the last count, 10⁴ clients.
	last := len(connScaleCounts) - 1
	perClient := func(mode string) float64 {
		return float64(rep.recvBytes[mode][last]) / float64(connScaleCounts[last])
	}
	rcPer, srqPer := perClient("rc"), perClient("srq")
	if rcPer <= 0 || srqPer <= 0 {
		t.Fatalf("degenerate footprints: rc=%.1f srq=%.1f B/client", rcPer, srqPer)
	}
	if srqPer*10 > rcPer {
		t.Errorf("per-connection bytes at 10^4 clients: srq=%.1f rc=%.1f, want >=10x gap",
			srqPer, rcPer)
	}

	rcTPS, srqTPS := rep.tps["rc"], rep.tps["srq"]
	if rcTPS <= 0 || srqTPS <= 0 {
		t.Fatalf("degenerate TPS: rc=%.0f srq=%.0f", rcTPS, srqTPS)
	}
	if srqTPS < 0.9*rcTPS {
		t.Errorf("TPS at 100 clients: srq=%.0f rc=%.0f, srq gives up >10%%", srqTPS, rcTPS)
	}

	// The other modes at least function and help the memory picture.
	for _, mode := range []string{"ud", "mux"} {
		if rep.tps[mode] <= 0 {
			t.Errorf("%s mode TPS = %.0f", mode, rep.tps[mode])
		}
		if per := perClient(mode); per >= rcPer {
			t.Errorf("%s per-client bytes at 10^4 = %.1f, not below rc %.1f", mode, per, rcPer)
		}
	}

	table := ConnScaleTable(rep)
	if !strings.Contains(table, "rc") || !strings.Contains(table, "10000") {
		t.Fatalf("table missing rows:\n%s", table)
	}
	t.Logf("\n%s", table)
}
