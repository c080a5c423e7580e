package mcclient

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"

	"repro/internal/memcached"
	"repro/internal/simnet"
	"repro/internal/sockstream"
)

// SockTransport speaks the memcached text protocol over a simulated
// socket — the unmodified-client path the paper benchmarks on 1GigE,
// 10GigE-TOE, IPoIB and SDP. Set, Delete and getInto run on blk, a
// window of one that reuses one future, as UCRTransport's blocking calls
// do. Every request is built in blk's write buffer, the transport's one request
// scratch, with the codec's Append* encoders and leaves as a single
// Write; replies are parsed in place out of the reader's buffer.
// getInto is the zero-allocation read; Get allocates exactly the value
// it returns.
type SockTransport struct {
	name string
	ex   *simnet.Executor // the deployment every exported call takes
	conn *sockstream.Conn
	r    *bufio.Reader

	blk   sockPipeline // the window of one every blocking call runs on
	one   future       // blk's future, reused from call to call
	spill []byte       // a reply line longer than the reader's buffer
}

// DialSock connects a socket transport with TCP_NODELAY set, as the
// paper's evaluation does (§VI) and the server does on its side. The
// handshake cost lands on clk. A dial is setup: its caller holds the
// deployment, or no other goroutine drives it yet.
func DialSock(p *sockstream.Provider, from, to *simnet.Node, service string, clk *simnet.VClock) (*SockTransport, error) {
	conn, err := p.Dial(from, to, service, clk, 0)
	if err != nil {
		return nil, err
	}
	t := &SockTransport{
		name: to.Name() + "/" + service,
		ex:   p.Fabric.Executor(),
		conn: conn,
		r:    bufio.NewReaderSize(conn, 16*1024),
	}
	t.blk = sockPipeline{t: t, window: 1, one: &t.one}
	return t, nil
}

// Name identifies the server.
func (t *SockTransport) Name() string { return t.name }

// send writes one encoded request — built on t.blk.wbuf[:0] — as a
// single Write.
func (t *SockTransport) send(clk *simnet.VClock, req []byte) error {
	t.blk.wbuf = req
	return t.blk.write(clk)
}

// readLine returns the next reply line; it aliases the reader's buffer
// until the next read.
func (t *SockTransport) readLine() ([]byte, error) {
	line, err := memcached.ReadTextLine(t.r, &t.spill)
	if err != nil {
		return nil, ErrServerDown
	}
	return line, nil
}

// Set implements Transport: StartSet on the transport's window, then Wait.
func (t *SockTransport) Set(clk *simnet.VClock, key string, flags uint32, exptime int64, value []byte) (memcached.StoreResult, error) {
	t.ex.Enter()
	defer t.ex.Exit()
	return t.blk.startSet(clk, key, flags, exptime, value).result(clk)
}

// readSetReply parses one storage-command answer off the stream.
func (t *SockTransport) readSetReply() (memcached.StoreResult, error) {
	line, err := t.readLine()
	if err != nil {
		return 0, err
	}
	res, ok := memcached.ParseTextStoreResult(line)
	if !ok {
		return 0, fmt.Errorf("mcclient: set: %s", line)
	}
	return res, nil
}

// Get implements Transport. The returned value is the call's one
// allocation; getInto avoids it.
func (t *SockTransport) Get(clk *simnet.VClock, key string) ([]byte, uint32, uint64, bool, error) {
	return t.getInto(clk, key, nil)
}

// getInto is Get with a caller-lent value buffer, the sockets twin of
// UCRTransport.GetInto: when the value fits in cap(buf) it is read off
// the stream straight into buf and the returned slice aliases it — no
// allocation. A value too large for buf is returned in a fresh one.
func (t *SockTransport) getInto(clk *simnet.VClock, key string, buf []byte) ([]byte, uint32, uint64, bool, error) {
	t.ex.Enter()
	defer t.ex.Exit()
	return t.blk.startGet(clk, key, buf).result(clk)
}

// readValue reads the data block a VALUE line announced — n bytes and
// the trailing \r\n — into lend when it fits, else a fresh buffer.
func (t *SockTransport) readValue(n int, lend []byte) ([]byte, error) {
	value := lend
	if cap(value) >= n {
		value = value[:n]
	} else {
		value = make([]byte, n)
	}
	if _, err := io.ReadFull(t.r, value); err != nil {
		return nil, ErrServerDown
	}
	if _, err := t.readLine(); err != nil {
		return nil, err
	}
	return value, nil
}

// readGetReply parses the answer to a one-key "gets" off the stream. A
// non-nil lend buffer receives the value when it fits (the returned
// slice aliases it); otherwise the value is freshly allocated. A VALUE
// line for any key but the requested one fails the op: the reply is
// consumed, so the stream stays usable, but another key's bytes are
// never returned as a hit.
func (t *SockTransport) readGetReply(key string, lend []byte) ([]byte, uint32, uint64, bool, error) {
	line, err := t.readLine()
	if err != nil {
		return nil, 0, 0, false, err
	}
	if memcached.IsTextEnd(line) {
		return nil, 0, 0, false, nil
	}
	v, ok := memcached.ParseTextValue(line)
	if !ok {
		return nil, 0, 0, false, fmt.Errorf("mcclient: get: %q", line)
	}
	var wrongKey error // v.Key aliases the line: judge it before reading on
	if string(v.Key) != key {
		wrongKey = fmt.Errorf("mcclient: get %q: server answered for key %q", key, v.Key)
	}
	value, err := t.readValue(v.Len, lend)
	if err != nil {
		return nil, 0, 0, false, err
	}
	if end, err := t.readLine(); err != nil || !memcached.IsTextEnd(end) {
		return nil, 0, 0, false, fmt.Errorf("mcclient: get: missing END (%q, %v)", end, err)
	}
	if wrongKey != nil {
		return nil, 0, 0, false, wrongKey
	}
	return value, v.Flags, v.CAS, true, nil
}

// GetMulti implements Transport with the text protocol's native
// multi-key get: one request line, one VALUE block per hit.
func (t *SockTransport) GetMulti(clk *simnet.VClock, keys []string) (map[string][]byte, error) {
	if len(keys) == 0 {
		return map[string][]byte{}, nil
	}
	t.ex.Enter()
	defer t.ex.Exit()
	if err := t.send(clk, memcached.AppendTextGet(t.blk.wbuf[:0], false, keys...)); err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(keys))
	// The server answers hits in request order, so each VALUE key is
	// looked for from the previous match onwards; one that is not among
	// the remaining requested keys fails the call. The reply is consumed
	// to its END either way, so the stream stays usable.
	next := 0
	var bad error
	for {
		line, err := t.readLine()
		if err != nil {
			return nil, err
		}
		if memcached.IsTextEnd(line) {
			if bad != nil {
				return nil, bad
			}
			return out, nil
		}
		v, ok := memcached.ParseTextValue(line)
		if !ok {
			return nil, fmt.Errorf("mcclient: mget: %q", line)
		}
		for next < len(keys) && keys[next] != string(v.Key) {
			next++
		}
		if next == len(keys) && bad == nil {
			bad = fmt.Errorf("mcclient: mget: server answered for unrequested key %q", v.Key)
		}
		value, err := t.readValue(v.Len, nil)
		if err != nil {
			return nil, err
		}
		if bad == nil {
			out[keys[next]] = value
			next++
		}
	}
}

// Delete implements Transport: StartDelete on the transport's window,
// then Wait.
func (t *SockTransport) Delete(clk *simnet.VClock, key string) (bool, error) {
	t.ex.Enter()
	defer t.ex.Exit()
	return t.blk.startDelete(clk, key).result(clk)
}

// readDeleteReply parses one delete answer off the stream.
func (t *SockTransport) readDeleteReply() (bool, error) {
	line, err := t.readLine()
	if err != nil {
		return false, err
	}
	return memcached.IsTextDeleted(line), nil
}

// IncrDecr implements Transport.
func (t *SockTransport) IncrDecr(clk *simnet.VClock, key string, delta uint64, incr bool) (uint64, bool, bool, error) {
	t.ex.Enter()
	defer t.ex.Exit()
	if err := t.send(clk, memcached.AppendTextIncrDecr(t.blk.wbuf[:0], incr, key, delta)); err != nil {
		return 0, false, false, err
	}
	line, err := t.readLine()
	if err != nil {
		return 0, false, false, err
	}
	switch {
	case string(line) == "NOT_FOUND":
		return 0, false, false, nil
	case bytes.HasPrefix(line, []byte("CLIENT_ERROR")):
		return 0, true, true, nil
	case bytes.HasPrefix(line, []byte("SERVER_ERROR")):
		return 0, true, false, ErrServerError
	default:
		val, perr := strconv.ParseUint(string(line), 10, 64)
		if perr != nil {
			return 0, false, false, fmt.Errorf("mcclient: incr/decr %q: %q", key, line)
		}
		return val, true, false, nil
	}
}

// Close implements Transport.
func (t *SockTransport) Close() {
	t.ex.Enter()
	defer t.ex.Exit()
	t.conn.Close()
}
