package bench

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
)

func faultSweepConfig() RunConfig {
	return RunConfig{OpsPerPoint: 15, keySpace: 8, seed: 7}
}

// TestFaultSweepDeterministic: the whole sweep — seeded drop verdicts,
// retransmission timings, retry backoffs — must be bit-identical across
// two invocations.
func TestFaultSweepDeterministic(t *testing.T) {
	p := cluster.ClusterB()
	transports := []cluster.Transport{cluster.UCRIB, cluster.IPoIB}
	drops := []float64{0, 5}
	a, err := FaultSweep(p, transports, drops, 64, faultSweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := FaultSweep(p, transports, drops, 64, faultSweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fault sweep not deterministic:\n%s\nvs\n%s", FaultSweepString(a), FaultSweepString(b))
	}
}

// TestFaultSweepRecovery: at 5% drop UCR must complete every operation
// (RC retransmission + AM retry absorb the loss) and the socket path
// must show wire-level retransmissions inflating latency over the
// lossless baseline.
func TestFaultSweepRecovery(t *testing.T) {
	p := cluster.ClusterB()
	cells, err := FaultSweep(p, []cluster.Transport{cluster.UCRIB, cluster.IPoIB}, []float64{0, 5}, 64, faultSweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]FaultCell{}
	for _, c := range cells {
		byKey[string(c.transport)+"@"+itoa(int(c.dropPct))] = c
	}
	ucr0, ucr5 := byKey["UCR-IB@0"], byKey["UCR-IB@5"]
	ip0, ip5 := byKey["IPoIB@0"], byKey["IPoIB@5"]

	if ucr5.failed != 0 {
		t.Fatalf("UCR at 5%% drop failed %d ops", ucr5.failed)
	}
	if ucr5.retransmits == 0 {
		t.Fatal("UCR at 5% drop shows no RC retransmissions")
	}
	if ucr0.retransmits != 0 || ip0.retransmits != 0 {
		t.Fatalf("lossless runs retransmitted (ucr=%d ip=%d)", ucr0.retransmits, ip0.retransmits)
	}
	if ip5.retransmits == 0 {
		t.Fatal("IPoIB at 5% drop shows no RTO retransmissions")
	}
	if ip5.meanUs <= ip0.meanUs {
		t.Fatalf("IPoIB latency not inflated by loss: %.2f vs %.2f us", ip5.meanUs, ip0.meanUs)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
