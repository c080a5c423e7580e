package mcclient

import (
	"fmt"

	"repro/internal/memcached"
	"repro/internal/simnet"
)

// StoreOp implements Transport over one AMStore round trip.
func (t *UCRTransport) StoreOp(clk *simnet.VClock, op uint8, key string, flags uint32, exptime int64, value []byte, casID uint64) (memcached.StoreResult, error) {
	t.ex.Enter()
	defer t.ex.Exit()
	o := t.newOp(clk)
	o.msg, o.val = memcached.AMStore, value
	o.hdr = memcached.AppendStoreReq(o.hdr, memcached.StoreReq{
		ReplyCtr: o.tag, Op: op, Flags: flags, Exptime: exptime, CAS: casID, Key: key,
	})
	if err := t.do(clk, o); err != nil {
		return 0, err
	}
	defer t.finishOp(o)
	return o.status.Result, nil
}

// StoreOp implements Transport with the matching text-protocol verb.
func (t *SockTransport) StoreOp(clk *simnet.VClock, op uint8, key string, flags uint32, exptime int64, value []byte, casID uint64) (memcached.StoreResult, error) {
	if memcached.StoreVerb(op) == "" {
		return 0, fmt.Errorf("mcclient: unknown store op %d", op)
	}
	t.ex.Enter()
	defer t.ex.Exit()
	req := memcached.AppendTextStore(t.wbuf[:0], op, key, flags, exptime, value, casID, false)
	if err := t.send(clk, req); err != nil {
		return 0, err
	}
	return t.readSetReply()
}

// storeOp routes a conditional store through the key's owner.
func (c *Client) storeOp(op uint8, key string, value []byte, flags uint32, exptime int64, casID uint64) error {
	if err := CheckKey(key); err != nil {
		return err
	}
	var res memcached.StoreResult
	err := c.withTransport(key, func(t Transport) error {
		var err error
		res, err = t.StoreOp(c.clk, op, key, flags, exptime, value, casID)
		return err
	})
	if err != nil {
		return err
	}
	return StoreErr(op, res)
}

// Add stores key=value only if the key is absent.
func (c *Client) Add(key string, value []byte, flags uint32, exptime int64) error {
	return c.storeOp(memcached.StoreOpAdd, key, value, flags, exptime, 0)
}

// Replace stores key=value only if the key is present.
func (c *Client) Replace(key string, value []byte, flags uint32, exptime int64) error {
	return c.storeOp(memcached.StoreOpReplace, key, value, flags, exptime, 0)
}

// Append adds value after the existing value for key.
func (c *Client) Append(key string, value []byte) error {
	return c.storeOp(memcached.StoreOpAppend, key, value, 0, 0, 0)
}

// Prepend adds value before the existing value for key.
func (c *Client) Prepend(key string, value []byte) error {
	return c.storeOp(memcached.StoreOpPrepend, key, value, 0, 0, 0)
}

// Cas stores key=value only if the entry's CAS id (from a prior Get)
// still matches.
func (c *Client) Cas(key string, value []byte, flags uint32, exptime int64, casID uint64) error {
	return c.storeOp(memcached.StoreOpCas, key, value, flags, exptime, casID)
}
