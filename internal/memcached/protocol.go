package memcached

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/simnet"
)

// Version is the engine's version string, derived from the memcached
// release the paper extended (server 1.4.5, §V).
const Version = "1.4.5-ucr-go"

// ProtoConn drives the memcached *text protocol* over any byte stream —
// a simulated socket (internal/sockstream) or a real net.Conn. This is
// the unmodified-memcached path the paper benchmarks over 1GigE,
// 10GigE-TOE, IPoIB and SDP. Commands are decoded with the byte-slice
// codec in textproto.go and run through the store's []byte-keyed entry
// points, so a steady-state get or same-size set allocates nothing.
type ProtoConn struct {
	r     *bufio.Reader
	w     io.Writer
	store *Store

	// Per-connection staging buffers, reused across commands so a burst
	// of pipelined requests re-grows nothing. Both the stream writer and
	// the store copy out of them before the next command runs, so reuse
	// is safe; retention is capped at scratchMax (one oversized request
	// must not pin a large buffer for the connection's lifetime).
	replyBuf []byte // reply line / multi-get response staging
	valBuf   []byte // inbound store-value staging
	lineBuf  []byte // a command line longer than the reader's buffer
	// keyBuf holds a storage command's key while its data block is read:
	// the parsed line aliases the reader's buffer, which that read reuses.
	// crlf receives the block's terminator (a local would escape through
	// io.ReadFull's interface argument).
	keyBuf [maxKeyLen]byte
	crlf   [2]byte
}

// NewProtoConn wraps a stream.
func NewProtoConn(rw io.ReadWriter, store *Store) *ProtoConn {
	return &ProtoConn{r: bufio.NewReaderSize(rw, 16*1024), w: rw, store: store}
}

// Buffered reports bytes already read off the stream but not yet
// consumed by the codec. A server's burst loop must drain these before
// parking the connection: they will never raise another readability
// event.
func (pc *ProtoConn) Buffered() int { return pc.r.Buffered() }

// ServeOne reads one command, executes it against the store at the
// clock's current virtual time, and writes the reply. quit=true means
// the client sent quit; a non-nil error means the connection is
// unusable (EOF, protocol desync) and should be dropped.
//
// clk is the serving thread's clock; the underlying stream charges its
// I/O costs to whatever clock it is seated on (the same one, when the
// server set it up), and command execution is timestamped after the
// request has fully arrived.
func (pc *ProtoConn) ServeOne(clk *simnet.VClock) (quit bool, err error) {
	line, err := ReadTextLine(pc.r, &pc.lineBuf)
	if err != nil {
		return false, err
	}
	verb, args := NextTextToken(line)
	switch string(verb) {
	case "get", "gets":
		return false, pc.cmdGet(args, len(verb) == 4, clk)
	case "delete":
		return false, pc.cmdDelete(args, clk)
	case "incr", "decr":
		return false, pc.cmdIncrDecr(args, verb[0] == 'i', clk)
	case "touch":
		return false, pc.cmdTouch(args, clk)
	case "stats":
		return false, pc.cmdStats(args)
	case "flush_all":
		pc.store.FlushAll(clk.Now())
		return false, pc.reply(textOK)
	case "version":
		return false, pc.reply(textVersion)
	case "verbosity":
		return false, pc.reply(textOK)
	case "quit":
		return true, nil
	default:
		if op := storeOpOf(verb); op != 0 {
			return false, pc.cmdStore(op, args, clk)
		}
		return false, pc.reply(textError)
	}
}

// reply writes one fixed reply line.
func (pc *ProtoConn) reply(line []byte) error {
	_, err := pc.w.Write(line)
	return err
}

func (pc *ProtoConn) cmdGet(keys []byte, withCAS bool, clk *simnet.VClock) error {
	n := 0
	for key, rest := NextTextToken(keys); key != nil; key, rest = NextTextToken(rest) {
		if len(key) > maxKeyLen {
			return pc.reply(textBadFormat)
		}
		n++
	}
	if n == 0 {
		return pc.reply(textError)
	}
	sb := pc.replyBuf[:0]
	cursor := clk.Now()
	for key, rest := NextTextToken(keys); key != nil; key, rest = NextTextToken(rest) {
		// The sockets engine copies the value out while holding the lock.
		copied := 0
		pc.store.View(key, clk.Now(), func(it *Item) {
			sb = AppendTextValue(sb, it.key, it.flags, it.value, it.casID, withCAS)
			copied = len(it.value)
		})
		cursor = chargeLock(pc.store, clk, cursor, key, copied)
	}
	sb = append(sb, textEnd...)
	_, err := pc.w.Write(sb)
	pc.retainReply(sb)
	return err
}

// retainReply keeps sb as the connection's reply staging buffer for the
// next command, unless a large response grew it past scratchMax — the
// writer has copied the bytes out, so only the capacity matters.
func (pc *ProtoConn) retainReply(sb []byte) {
	if cap(sb) <= scratchMax {
		pc.replyBuf = sb[:0]
	} else {
		pc.replyBuf = nil
	}
}

func (pc *ProtoConn) cmdStore(op uint8, args []byte, clk *simnet.VClock) error {
	c, verdict := parseTextStore(op, args)
	switch verdict {
	case textArity:
		return pc.reply(textError)
	case textBadFields:
		// Protocol rule: the data block still follows; consume it to
		// stay in sync, then report.
		if c.nbytes >= 0 {
			pc.discard(int64(c.nbytes) + 2)
		}
		return pc.reply(textBadFormat)
	}
	key := pc.keyBuf[:copy(pc.keyBuf[:], c.key)]
	if c.nbytes > pc.store.MaxItemSize() {
		// Reject before allocating: a declared size in the gigabytes must
		// not size a buffer (found by FuzzTextProtocol). The data block is
		// drained to keep the stream in sync, like memcached's
		// swallow-then-error path.
		pc.discard(int64(c.nbytes) + 2)
		chargeLock(pc.store, clk, clk.Now(), key, 0)
		if c.noreply {
			return nil
		}
		return pc.reply(textStoreResult[TooLarge])
	}
	// Stage the inbound value in the connection's reusable buffer: the
	// store copies it into slab memory before the next command runs. An
	// oversized value gets a one-off buffer that is not retained.
	value := pooledBuf(&pc.valBuf, c.nbytes)
	if _, err := io.ReadFull(pc.r, value); err != nil {
		return err
	}
	if _, err := io.ReadFull(pc.r, pc.crlf[:]); err != nil {
		return err
	}
	if pc.crlf != [2]byte{'\r', '\n'} {
		return pc.reply(textBadChunk)
	}
	if mutProtoDropFlags {
		c.flags = 0
	}
	res := pc.store.Store(op, key, c.flags, c.exptime, value, c.casID, clk.Now())
	// The sockets engine copies the inbound value into slab memory while
	// holding the lock (unlike the UCR path, where RDMA lands the value
	// before the commit takes it).
	chargeLock(pc.store, clk, clk.Now(), key, c.nbytes)
	if c.noreply {
		return nil
	}
	return pc.reply(textStoreResult[res])
}

func (pc *ProtoConn) discard(n int64) {
	if n > 0 {
		io.CopyN(io.Discard, pc.r, n)
	}
}

func (pc *ProtoConn) cmdDelete(args []byte, clk *simnet.VClock) error {
	var f [2][]byte
	n := textTokens(args, f[:])
	if n < 1 {
		return pc.reply(textError)
	}
	noreply := n == 2 && string(f[1]) == "noreply"
	ok := pc.store.Delete(f[0], clk.Now())
	chargeLock(pc.store, clk, clk.Now(), f[0], 0)
	if noreply {
		return nil
	}
	if ok {
		return pc.reply(textDeleted)
	}
	return pc.reply(textNotFound)
}

func (pc *ProtoConn) cmdIncrDecr(args []byte, incr bool, clk *simnet.VClock) error {
	var f [3][]byte
	n := textTokens(args, f[:])
	if n < 2 {
		return pc.reply(textError)
	}
	noreply := n == 3 && string(f[2]) == "noreply"
	delta, err := strconv.ParseUint(string(f[1]), 10, 64)
	if err != nil {
		return pc.reply(textBadDelta)
	}
	val, found, bad, oom := pc.store.IncrDecr(f[0], delta, incr, clk.Now())
	chargeLock(pc.store, clk, clk.Now(), f[0], 0)
	if noreply {
		return nil
	}
	switch {
	case !found:
		return pc.reply(textNotFound)
	case bad:
		return pc.reply(textNonNumeric)
	case oom:
		return pc.reply(textStoreResult[OOM])
	default:
		pc.replyBuf = append(strconv.AppendUint(pc.replyBuf[:0], val, 10), '\r', '\n')
		return pc.reply(pc.replyBuf)
	}
}

func (pc *ProtoConn) cmdTouch(args []byte, clk *simnet.VClock) error {
	var f [3][]byte
	n := textTokens(args, f[:])
	if n < 2 {
		return pc.reply(textError)
	}
	noreply := n == 3 && string(f[2]) == "noreply"
	exptime, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return pc.reply(textBadFormat)
	}
	now := clk.Now()
	chargeLock(pc.store, clk, clk.Now(), f[0], 0)
	ok := pc.store.Touch(f[0], exptime, now)
	if noreply {
		return nil
	}
	if ok {
		return pc.reply(textTouched)
	}
	return pc.reply(textNotFound)
}

func (pc *ProtoConn) cmdStats(args []byte) error {
	if sub, _ := NextTextToken(args); sub != nil {
		switch string(sub) {
		case "slabs":
			return pc.cmdStatsSlabs()
		case "items":
			return pc.cmdStatsItems()
		case "settings":
			return pc.cmdStatsSettings()
		default:
			return pc.reply(textError)
		}
	}
	st := pc.store.Stats()
	lines := []struct {
		name string
		val  uint64
	}{
		{"cmd_get", st.CmdGet},
		{"cmd_set", st.CmdSet},
		{"get_hits", st.GetHits},
		{"get_misses", st.GetMisses},
		{"delete_hits", st.DeleteHits},
		{"delete_misses", st.DeleteMisses},
		{"incr_hits", st.IncrHits},
		{"incr_misses", st.IncrMisses},
		{"decr_hits", st.DecrHits},
		{"decr_misses", st.DecrMisses},
		{"cas_hits", st.CasHits},
		{"cas_misses", st.CasMisses},
		{"cas_badval", st.CasBadval},
		{"evictions", st.Evictions},
		{"expired", st.Expired},
		{"curr_items", st.CurrItems},
		{"total_items", st.TotalItems},
		{"bytes", st.Bytes},
		{"limit_maxbytes", st.LimitMaxBytes},
	}
	var sb strings.Builder
	for _, l := range lines {
		fmt.Fprintf(&sb, "STAT %s %d\r\n", l.name, l.val)
	}
	sb.WriteString("END\r\n")
	return pc.replyString(sb.String())
}

// cmdStatsSlabs reports per-class slab occupancy (memcached's
// `stats slabs`: only classes with pages appear).
func (pc *ProtoConn) cmdStatsSlabs() error {
	a := pc.store.Arena()
	var sb strings.Builder
	totalPages := 0
	for i := 0; i < a.NumClasses(); i++ {
		pages := a.ClassPages(i)
		if pages == 0 {
			continue
		}
		totalPages += pages
		perPage := slabPageSize / a.ClassSize(i)
		total := pages * perPage
		free := a.FreeChunks(i)
		fmt.Fprintf(&sb, "STAT %d:chunk_size %d\r\n", i+1, a.ClassSize(i))
		fmt.Fprintf(&sb, "STAT %d:chunks_per_page %d\r\n", i+1, perPage)
		fmt.Fprintf(&sb, "STAT %d:total_pages %d\r\n", i+1, pages)
		fmt.Fprintf(&sb, "STAT %d:total_chunks %d\r\n", i+1, total)
		fmt.Fprintf(&sb, "STAT %d:used_chunks %d\r\n", i+1, total-free)
		fmt.Fprintf(&sb, "STAT %d:free_chunks %d\r\n", i+1, free)
	}
	fmt.Fprintf(&sb, "STAT active_slabs %d\r\n", totalPages)
	fmt.Fprintf(&sb, "STAT total_malloced %d\r\n", a.UsedBytes())
	sb.WriteString("END\r\n")
	return pc.replyString(sb.String())
}

// cmdStatsItems reports per-class item counts (`stats items`).
func (pc *ProtoConn) cmdStatsItems() error {
	var sb strings.Builder
	for i, n := range pc.store.ItemsPerClass() {
		if n == 0 {
			continue
		}
		fmt.Fprintf(&sb, "STAT items:%d:number %d\r\n", i+1, n)
	}
	sb.WriteString("END\r\n")
	return pc.replyString(sb.String())
}

// cmdStatsSettings reports the engine's effective limits.
func (pc *ProtoConn) cmdStatsSettings() error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "STAT maxbytes %d\r\n", pc.store.Stats().LimitMaxBytes)
	fmt.Fprintf(&sb, "STAT evictions %s\r\n", onOff(pc.store.evictions))
	fmt.Fprintf(&sb, "STAT item_size_max %d\r\n", pc.store.Arena().ClassSize(pc.store.Arena().NumClasses()-1))
	sb.WriteString("END\r\n")
	return pc.replyString(sb.String())
}

// replyString writes a reply built as a string (the stats blocks).
func (pc *ProtoConn) replyString(s string) error {
	_, err := io.WriteString(pc.w, s)
	return err
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
