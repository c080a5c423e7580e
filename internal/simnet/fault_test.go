package simnet

import "testing"

func faultFabric(t *testing.T) (*Fabric, *Node, *Node) {
	t.Helper()
	nw := NewNetwork()
	a := nw.AddNode("a")
	b := nw.AddNode("b")
	f := nw.AddFabric(FabricSpec{
		Name:            "test",
		LinkBytesPerSec: 1e9,
		Propagation:     200,
		SwitchDelay:     100,
	})
	f.Attach(a)
	f.Attach(b)
	return f, a, b
}

// With no injector installed, DeliverFaulty must be exactly Deliver.
func TestDeliverFaultyNilInjectorMatchesDeliver(t *testing.T) {
	f, a, b := faultFabric(t)
	f2, a2, b2 := faultFabric(t)
	var at Time
	for i := 0; i < 10; i++ {
		want, err := f.Deliver(a, b, at, 1000+i*100)
		if err != nil {
			t.Fatal(err)
		}
		got, outcome, err := f2.DeliverFaulty(a2, b2, at, 1000+i*100)
		if err != nil {
			t.Fatal(err)
		}
		if outcome != Delivered {
			t.Fatalf("outcome = %v, want Delivered", outcome)
		}
		if got != want {
			t.Fatalf("msg %d: DeliverFaulty arrive %d != Deliver arrive %d", i, got, want)
		}
		at = want
	}
}

// With an injector whose rates are zero, timings must still match Deliver.
func TestDeliverFaultyZeroRatesMatchesDeliver(t *testing.T) {
	f, a, b := faultFabric(t)
	f2, a2, b2 := faultFabric(t)
	f2.SetFaults(NewFaultInjector(FaultConfig{Seed: 1}))
	var at Time
	for i := 0; i < 10; i++ {
		want, _ := f.Deliver(a, b, at, 4096)
		got, outcome, err := f2.DeliverFaulty(a2, b2, at, 4096)
		if err != nil || outcome != Delivered || got != want {
			t.Fatalf("msg %d: got (%d,%v,%v), want (%d,Delivered,nil)", i, got, outcome, err, want)
		}
		at = want
	}
}

// Two injectors with the same seed must produce identical verdict
// sequences per directed pair.
func TestFaultDeterminism(t *testing.T) {
	cfg := FaultConfig{Seed: 42, DropRate: 0.2, CorruptRate: 0.05}
	_, a, b := faultFabric(t)
	run := func() []DeliveryOutcome {
		fi := NewFaultInjector(cfg)
		out := make([]DeliveryOutcome, 200)
		for i := range out {
			out[i] = fi.judge(a, b)
		}
		return out
	}
	first := run()
	second := run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("verdict %d differs between identically-seeded runs: %v vs %v", i, first[i], second[i])
		}
	}
	var drops, corrupts int
	for _, o := range first {
		switch o {
		case dropped:
			drops++
		case corrupted:
			corrupts++
		}
	}
	if drops == 0 {
		t.Fatal("DropRate 0.2 over 200 messages produced zero drops")
	}
	if corrupts == 0 {
		t.Fatal("CorruptRate 0.05 over 200 messages produced zero corruptions")
	}
}

// Directed pairs draw from independent streams: a→b and b→a must not
// share a verdict sequence position.
func TestFaultPairIndependence(t *testing.T) {
	cfg := FaultConfig{Seed: 7, DropRate: 0.3}
	_, a, b := faultFabric(t)

	// Interleaved judging must give each pair the same stream it gets
	// when judged alone.
	solo := NewFaultInjector(cfg)
	var ab []DeliveryOutcome
	for i := 0; i < 50; i++ {
		ab = append(ab, solo.judge(a, b))
	}
	mixed := NewFaultInjector(cfg)
	for i := 0; i < 50; i++ {
		got := mixed.judge(a, b)
		if got != ab[i] {
			t.Fatalf("a→b verdict %d changed when b→a traffic interleaved", i)
		}
		mixed.judge(b, a) // interleave reverse-direction traffic
	}
}

func TestFaultDropNextAndStats(t *testing.T) {
	f, a, b := faultFabric(t)
	fi := NewFaultInjector(FaultConfig{Seed: 3})
	f.SetFaults(fi)
	fi.DropNext(a, b, 2)

	for i := 0; i < 2; i++ {
		_, outcome, err := f.DeliverFaulty(a, b, 0, 100)
		if err != nil || outcome != dropped {
			t.Fatalf("msg %d: outcome = %v err = %v, want Dropped", i, outcome, err)
		}
	}
	_, outcome, err := f.DeliverFaulty(a, b, 0, 100)
	if err != nil || outcome != Delivered {
		t.Fatalf("after DropNext exhausted: outcome = %v err = %v, want Delivered", outcome, err)
	}
	// Reverse direction unaffected by DropNext(a, b).
	_, outcome, _ = f.DeliverFaulty(b, a, 0, 100)
	if outcome != Delivered {
		t.Fatalf("b→a outcome = %v, want Delivered", outcome)
	}
	delivered, dropped, corrupted := fi.Stats()
	if delivered != 2 || dropped != 2 || corrupted != 0 {
		t.Fatalf("Stats() = (%d,%d,%d), want (2,2,0)", delivered, dropped, corrupted)
	}
}

func TestFaultPartitionHeal(t *testing.T) {
	f, a, b := faultFabric(t)
	fi := NewFaultInjector(FaultConfig{})
	f.SetFaults(fi)

	fi.Partition(a, b)
	if _, outcome, _ := f.DeliverFaulty(a, b, 0, 10); outcome != dropped {
		t.Fatalf("partitioned a→b outcome = %v, want Dropped", outcome)
	}
	if _, outcome, _ := f.DeliverFaulty(b, a, 0, 10); outcome != dropped {
		t.Fatalf("partitioned b→a outcome = %v, want Dropped", outcome)
	}
	fi.Heal(a, b)
	if _, outcome, _ := f.DeliverFaulty(a, b, 0, 10); outcome != Delivered {
		t.Fatalf("healed a→b outcome = %v, want Delivered", outcome)
	}
}

// A dropped message consumes the uplink but not the receiver's downlink.
func TestFaultDropChargesUplinkOnly(t *testing.T) {
	f, a, b := faultFabric(t)
	fi := NewFaultInjector(FaultConfig{})
	f.SetFaults(fi)
	fi.DropNext(a, b, 1)

	if _, outcome, _ := f.DeliverFaulty(a, b, 0, 1000); outcome != dropped {
		t.Fatal("expected drop")
	}
	util := f.Utilization()
	if util["test/a/up"] == 0 {
		t.Fatal("dropped message did not charge sender uplink")
	}
	if util["test/b/down"] != 0 {
		t.Fatal("dropped message charged receiver downlink")
	}
}
