package ucr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/simnet"
)

// On a lossy fabric, UCR's RC transport retransmits transparently: every
// request completes and the payloads are intact, the only trace being
// the HCA's retransmission counter.
func TestLossyFabricAllRequestsComplete(t *testing.T) {
	w := newWorld(t, Config{})
	rc := w.installClientReply()
	ep := w.dial(t, Reliable) // CM handshake is lossless by design
	w.fab.SetFaults(simnet.NewFaultInjector(simnet.FaultConfig{Seed: 11, DropRate: 0.15}))

	for i := 0; i < 30; i++ {
		payload := []byte(fmt.Sprintf("payload-%02d", i))
		if err := w.request(t, ep, "lossy", payload, 0); err != nil {
			t.Fatalf("request %d over 15%% loss: %v", i, err)
		}
		if !bytes.Equal(rc.data, payload) {
			t.Fatalf("request %d: data corrupted: %q", i, rc.data)
		}
	}
	if w.cliRT.HCA().Retransmits()+w.srvRT.HCA().Retransmits() == 0 {
		t.Fatal("15% loss over 30 round trips caused zero retransmissions")
	}
}

// A partition makes the request time out; the endpoint is isolated
// (Failed, rejects sends) while the runtime itself stays alive: a fresh
// endpoint dialed after healing works.
func TestAMTimeoutIsolatesEndpointNotRuntime(t *testing.T) {
	w := newWorld(t, Config{})
	w.installClientReply()
	ep := w.dial(t, Reliable)

	// Warm exchange proves the path works.
	if err := w.request(t, ep, "warm", []byte("w"), 0); err != nil {
		t.Fatal(err)
	}

	fi := simnet.NewFaultInjector(simnet.FaultConfig{Seed: 3})
	w.fab.SetFaults(fi)
	fi.Partition(w.cliNode, w.srvNode)

	err := w.request(t, ep, "cut", []byte("c"), 50*simnet.Microsecond)
	if err != ErrTimeout && err != errEndpointDown {
		t.Fatalf("request across partition = %v, want timeout or endpoint-down", err)
	}
	// Retry exhaustion surfaced as a send-completion error, which the
	// progress engine turns into endpoint isolation.
	if !ep.Failed() {
		t.Fatal("endpoint not isolated after partition")
	}
	if err := ep.Send(w.cliClk, midRequest, make([]byte, 16), []byte("x"), nil, 0, nil); err != errEndpointDown {
		t.Fatalf("send on isolated endpoint = %v, want ErrEndpointDown", err)
	}

	// The runtime survived: heal and dial a fresh endpoint.
	fi.Heal(w.cliNode, w.srvNode)
	ep2, err := w.cliRT.Dial(w.cliCtx, w.srvNode, "echo", Reliable, w.cliClk, 5*time.Second)
	if err != nil {
		t.Fatalf("runtime cannot dial after endpoint isolation: %v", err)
	}
	if err := w.request(t, ep2, "healed", []byte("h"), 0); err != nil {
		t.Fatalf("request on fresh endpoint after heal: %v", err)
	}
}

// MarkFailed lets an upper layer isolate an endpoint directly.
func TestMarkFailedIsolatesEndpoint(t *testing.T) {
	w := newWorld(t, Config{})
	w.installClientReply()
	ep := w.dial(t, Reliable)
	ep.MarkFailed()
	if !ep.Failed() {
		t.Fatal("MarkFailed did not stick")
	}
	if err := ep.Send(w.cliClk, midRequest, make([]byte, 16), nil, nil, 0, nil); err != errEndpointDown {
		t.Fatalf("send on marked endpoint = %v, want ErrEndpointDown", err)
	}
}

// Rendezvous transfers (header + RDMA read + ack, three lossy crossings)
// also survive loss intact.
func TestRendezvousUnderLoss(t *testing.T) {
	w := newWorld(t, Config{EagerThreshold: 1024})
	rc := w.installClientReply()
	ep := w.dial(t, Reliable)
	w.fab.SetFaults(simnet.NewFaultInjector(simnet.FaultConfig{Seed: 21, DropRate: 0.1}))

	payload := make([]byte, 32*1024)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	if err := w.request(t, ep, "big", payload, 0); err != nil {
		t.Fatalf("rendezvous over loss: %v", err)
	}
	if !bytes.Equal(rc.data, payload) {
		t.Fatal("rendezvous payload corrupted over lossy fabric")
	}
}

// TestAMRetriesConfig pins what an upper layer's AM retry loop relies
// on: a wait that times out leaves the endpoint usable, and the request
// re-sent under the same reply counter completes.
func TestAMRetriesConfig(t *testing.T) {
	w := newWorld(t, Config{})
	rc := w.installClientReply()
	ep := w.dial(t, Reliable)
	replyCtr := w.cliRT.NewCounter()
	defer w.cliRT.FreeCounter(replyCtr)
	hdr := binary.LittleEndian.AppendUint64(nil, uint64(replyCtr.ID()))
	send := func() {
		t.Helper()
		if err := ep.Send(w.cliClk, midRequest, hdr, []byte("again"), nil, 0, nil); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	send()
	if err := w.cliCtx.WaitCounter(w.cliClk, replyCtr, 1, 1); err != ErrTimeout {
		t.Fatalf("wait shorter than a round trip = %v, want ErrTimeout", err)
	}
	if ep.Failed() {
		t.Fatal("a timed-out wait isolated the endpoint")
	}
	send()
	if err := w.cliCtx.WaitCounter(w.cliClk, replyCtr, 2, 0); err != nil {
		t.Fatalf("re-sent request: %v", err)
	}
	if rc.runs != 2 || string(rc.data) != "again" {
		t.Fatalf("replies = %d (last %q), want 2 echoing %q", rc.runs, rc.data, "again")
	}
}
