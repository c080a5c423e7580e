package mcclient

import (
	"repro/internal/memcached"
	"repro/internal/simnet"
)

// windowed is a transport whose blocking calls run on a window of one
// of its own (both transports): window returns it with the one future
// every Start on it hands back, so a fan-out can start on every
// transport before it waits on any.
type windowed interface {
	window() (Pipeline, *future)
}

func (t *UCRTransport) window() (Pipeline, *future)  { return &t.blk, &t.one }
func (t *SockTransport) window() (Pipeline, *future) { return &t.blk, &t.one }

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
		if w, ok := tr.(windowed); ok {
			p, _ := w.window()
			p.StartSet(clk, key, flags, exptime, value)
		}
	}
	for i, tr := range trs {
		switch w, ok := tr.(windowed); {
		case ok:
			_, f := w.window()
			res[i], errs[i] = (*SetFuture)(f).Wait(clk)
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
		if w, ok := tr.(windowed); ok {
			p, _ := w.window()
			p.StartDelete(clk, key)
		}
	}
	for i, tr := range trs {
		switch w, ok := tr.(windowed); {
		case ok:
			_, f := w.window()
			found[i], errs[i] = (*BoolFuture)(f).Wait(clk)
		case tr == nil:
			found[i], errs[i] = false, ErrServerDown
		default:
			found[i], errs[i] = tr.Delete(clk, key)
		}
	}
}
