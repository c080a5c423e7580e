package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/mcclient"
)

// TestUDGetsMultiFallback: an mget whose aggregate reply exceeds one
// datagram comes back as AMMGetRetry and re-issues over RC.
func TestUDGetsMultiFallback(t *testing.T) {
	d := New(ClusterB(), Options{UDGets: true})
	defer d.Close()

	c, err := d.NewClient(UCRIB, mcclient.DefaultBehaviors())
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()

	val := bytes.Repeat([]byte("x"), 1500) // several exceed one datagram
	keys := make([]string, 6)
	for i := range keys {
		keys[i] = fmt.Sprintf("mk%d", i)
		if err := c.MC.Set(keys[i], val, 0, 0); err != nil {
			t.Fatalf("set %s: %v", keys[i], err)
		}
	}
	got, err := c.MC.GetMulti(keys)
	if err != nil {
		t.Fatalf("GetMulti: %v", err)
	}
	for _, k := range keys {
		if !bytes.Equal(got[k], val) {
			t.Fatalf("GetMulti[%s] = %d bytes, want %d", k, len(got[k]), len(val))
		}
	}
	ud := &clientUCRTransport(t, c).PathStats().By[mcclient.PathUD]
	if ud.Fallbacks < 1 {
		t.Fatalf("UD fallbacks = %d, want >= 1 (AMMGetRetry punt not exercised)", ud.Fallbacks)
	}
	// Small aggregate rides UD end to end: no further fallback.
	if err := c.MC.Set("tiny", []byte("t"), 0, 0); err != nil {
		t.Fatal(err)
	}
	before := *ud
	if small, err := c.MC.GetMulti([]string{"tiny"}); err != nil || string(small["tiny"]) != "t" {
		t.Fatalf("small mget = (%v, %v)", small, err)
	}
	if ud.Hits <= before.Hits || ud.Fallbacks != before.Fallbacks {
		t.Fatalf("small mget should ride UD without fallback (%+v -> %+v)", before, *ud)
	}
}

// clientUCRTransport digs the first server's UCRTransport out of a
// client handle.
func clientUCRTransport(t *testing.T, c *Client) *mcclient.UCRTransport {
	t.Helper()
	ut, ok := c.MC.Transport(0).(*mcclient.UCRTransport)
	if !ok {
		t.Fatalf("transport is %T, not *UCRTransport", c.MC.Transport(0))
	}
	return ut
}
