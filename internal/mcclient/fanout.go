package mcclient

import (
	"repro/internal/memcached"
	"repro/internal/simnet"
)

// splitWriter is a transport whose blocking Set and Delete are two
// halves run back to back: a post, which puts the request on the wire and
// returns, and a settle, which waits for that request's reply (§V-B: a
// non-blocking send, then a wait on its counter). One write at a time
// sits between a transport's post and its settle.
type splitWriter interface {
	postSet(clk *simnet.VClock, key string, flags uint32, exptime int64, value []byte) error
	postDelete(clk *simnet.VClock, key string) error
	settleSet(clk *simnet.VClock) (memcached.StoreResult, error)
	settleDelete(clk *simnet.VClock) (bool, error)
}

// Both transports split: a signature that drifted would fall back to the
// blocking calls without a word.
var (
	_ splitWriter = (*UCRTransport)(nil)
	_ splitWriter = (*SockTransport)(nil)
)

// SetAll stores key=value on every transport in trs with every request on
// the wire before any reply is waited for: it posts on each transport in
// order, then settles each in order into res[i] and errs[i], so a write
// to R servers costs one round trip, not R. res and errs are the
// caller's, at least len(trs) long. A nil transport (no connection to
// that server) settles as ErrServerDown; one that cannot split runs its
// blocking Set when its turn to settle comes; one whose post failed
// settles with that error. SetAll allocates nothing.
func SetAll(clk *simnet.VClock, trs []Transport, key string, flags uint32, exptime int64, value []byte, res []memcached.StoreResult, errs []error) {
	for i, tr := range trs {
		if w, ok := tr.(splitWriter); ok {
			res[i], errs[i] = 0, w.postSet(clk, key, flags, exptime, value)
		}
	}
	for i, tr := range trs {
		w, ok := tr.(splitWriter)
		switch {
		case tr == nil:
			res[i], errs[i] = 0, ErrServerDown
		case !ok:
			res[i], errs[i] = tr.Set(clk, key, flags, exptime, value)
		case errs[i] == nil:
			res[i], errs[i] = w.settleSet(clk)
		}
	}
}

// DeleteAll is SetAll for a delete: every transport's request is posted
// before any is settled into found[i] and errs[i].
func DeleteAll(clk *simnet.VClock, trs []Transport, key string, found []bool, errs []error) {
	for i, tr := range trs {
		if w, ok := tr.(splitWriter); ok {
			found[i], errs[i] = false, w.postDelete(clk, key)
		}
	}
	for i, tr := range trs {
		w, ok := tr.(splitWriter)
		switch {
		case tr == nil:
			found[i], errs[i] = false, ErrServerDown
		case !ok:
			found[i], errs[i] = tr.Delete(clk, key)
		case errs[i] == nil:
			found[i], errs[i] = w.settleDelete(clk)
		}
	}
}
