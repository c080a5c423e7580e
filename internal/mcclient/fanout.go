package mcclient

import (
	"repro/internal/memcached"
	"repro/internal/simnet"
)

// ownWindow is the window of one a transport's blocking calls run on,
// or nil for a transport without one (a wrapper, a fake) and for none.
func ownWindow(tr Transport) *window {
	switch t := tr.(type) {
	case *UCRTransport:
		return &t.blk
	case *SockTransport:
		return &t.blk
	}
	return nil
}

// SetAll stores key=value on every transport in trs with every request on
// the wire before any reply is waited for: it starts a set on each
// transport's window in order, then waits on each in order into res[i]
// and errs[i], so a write to R servers costs one round trip, not R. res
// and errs are the caller's, at least len(trs) long. A nil transport (no
// connection to that server) settles as ErrServerDown; one without a
// window of its own runs its blocking Set when its turn to wait comes.
// SetAll allocates nothing.
func SetAll(clk *simnet.VClock, trs []Transport, key string, flags uint32, exptime int64, value []byte, res []memcached.StoreResult, errs []error) {
	for _, tr := range trs {
		if w := ownWindow(tr); w != nil {
			w.StartSet(clk, key, flags, exptime, value)
		}
	}
	for i, tr := range trs {
		switch w := ownWindow(tr); {
		case w != nil:
			res[i], errs[i] = (*SetFuture)(w.one).Wait(clk)
		case tr == nil:
			res[i], errs[i] = 0, ErrServerDown
		default:
			res[i], errs[i] = tr.Set(clk, key, flags, exptime, value)
		}
	}
}

// DeleteAll is SetAll for a delete: a delete is started on every
// transport's window before any is waited on into found[i] and errs[i].
func DeleteAll(clk *simnet.VClock, trs []Transport, key string, found []bool, errs []error) {
	for _, tr := range trs {
		if w := ownWindow(tr); w != nil {
			w.StartDelete(clk, key)
		}
	}
	for i, tr := range trs {
		switch w := ownWindow(tr); {
		case w != nil:
			found[i], errs[i] = (*BoolFuture)(w.one).Wait(clk)
		case tr == nil:
			found[i], errs[i] = false, ErrServerDown
		default:
			found[i], errs[i] = tr.Delete(clk, key)
		}
	}
}
