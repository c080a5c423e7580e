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
// 10GigE-TOE, IPoIB and SDP. Requests are built in one reused scratch
// with the codec's Append* encoders and leave as a single Write; replies
// are parsed in place out of the reader's buffer. GetInto is the
// zero-allocation read; Get allocates exactly the value it returns.
type SockTransport struct {
	name string
	conn *sockstream.Conn
	r    *bufio.Reader

	req   []byte // request scratch, reused across blocking calls
	spill []byte // a reply line longer than the reader's buffer
}

// DialSock connects a socket transport with TCP_NODELAY set, as the
// paper's evaluation does (§VI) and the server does on its side. The
// handshake cost lands on clk.
func DialSock(p *sockstream.Provider, from, to *simnet.Node, service string, clk *simnet.VClock) (*SockTransport, error) {
	conn, err := p.Dial(from, to, service, clk, 0)
	if err != nil {
		return nil, err
	}
	conn.NoDelay = true
	return &SockTransport{
		name: to.Name() + "/" + service,
		conn: conn,
		r:    bufio.NewReaderSize(conn, 16*1024),
	}, nil
}

// Name identifies the server.
func (t *SockTransport) Name() string { return t.name }

// Conn exposes the stream (tests).
func (t *SockTransport) Conn() *sockstream.Conn { return t.conn }

// send writes one encoded request — built on t.req[:0] — as a single
// Write and keeps the buffer for the next one, unless one large set grew
// it past scratchCap.
func (t *SockTransport) send(clk *simnet.VClock, req []byte) error {
	t.conn.SetClock(clk)
	_, err := t.conn.Write(req)
	if t.req = req[:0]; cap(req) > scratchCap {
		t.req = nil
	}
	if err != nil {
		return ErrServerDown
	}
	return nil
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

// Set implements Transport.
func (t *SockTransport) Set(clk *simnet.VClock, key string, flags uint32, exptime int64, value []byte) (memcached.StoreResult, error) {
	req := memcached.AppendTextStore(t.req[:0], memcached.StoreOpSet, key, flags, exptime, value, 0, false)
	if err := t.send(clk, req); err != nil {
		return 0, err
	}
	return t.readSetReply()
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
// allocation; GetInto avoids it.
func (t *SockTransport) Get(clk *simnet.VClock, key string) ([]byte, uint32, uint64, bool, error) {
	return t.GetInto(clk, key, nil)
}

// GetInto is Get with a caller-lent value buffer, the sockets twin of
// UCRTransport.GetInto: when the value fits in cap(buf) it is read off
// the stream straight into buf and the returned slice aliases it — no
// allocation. A value too large for buf is returned in a fresh one.
func (t *SockTransport) GetInto(clk *simnet.VClock, key string, buf []byte) ([]byte, uint32, uint64, bool, error) {
	if err := t.send(clk, memcached.AppendTextGet(t.req[:0], true, key)); err != nil {
		return nil, 0, 0, false, err
	}
	return t.readGetReply(key, buf)
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
	if err := t.send(clk, memcached.AppendTextGet(t.req[:0], false, keys...)); err != nil {
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

// Delete implements Transport.
func (t *SockTransport) Delete(clk *simnet.VClock, key string) (bool, error) {
	if err := t.send(clk, memcached.AppendTextDelete(t.req[:0], key)); err != nil {
		return false, err
	}
	return t.readDeleteReply()
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
	if err := t.send(clk, memcached.AppendTextIncrDecr(t.req[:0], incr, key, delta)); err != nil {
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

// Stats fetches the server's stats block.
func (t *SockTransport) Stats(clk *simnet.VClock) (map[string]uint64, error) {
	if err := t.send(clk, append(t.req[:0], "stats\r\n"...)); err != nil {
		return nil, err
	}
	out := make(map[string]uint64)
	for {
		line, err := t.readLine()
		if err != nil {
			return nil, err
		}
		if memcached.IsTextEnd(line) {
			return out, nil
		}
		stat, rest := memcached.NextTextToken(line)
		name, rest := memcached.NextTextToken(rest)
		val, _ := memcached.NextTextToken(rest)
		if n, err := strconv.ParseUint(string(val), 10, 64); err == nil && string(stat) == "STAT" {
			out[string(name)] = n
		}
	}
}

// Close implements Transport.
func (t *SockTransport) Close() { t.conn.Close() }
