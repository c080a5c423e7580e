package memcached

import (
	"bufio"
	"bytes"
	"strconv"
)

// The memcached text protocol's codec, shared by both ends the way the
// active-message codecs in amproto*.go are: the server (ProtoConn) and
// the sockets client (mcclient.SockTransport and its pipeline) read
// lines with ReadTextLine and build what they send with the Append*
// encoders; the server splits lines with nextTextToken. Everything works on byte
// slices the caller owns — a line aliases the reader's buffer, a
// request or reply is appended to a reused scratch — so a round trip
// allocates nothing in the codec.

// Fixed reply lines (server side).
var (
	textEnd         = []byte("END\r\n")
	textError       = []byte("ERROR\r\n")
	textOK          = []byte("OK\r\n")
	textVersion     = []byte("VERSION " + Version + "\r\n")
	textDeleted     = []byte("DELETED\r\n")
	textTouched     = []byte("TOUCHED\r\n")
	textNotFound    = []byte("NOT_FOUND\r\n")
	textBadFormat   = []byte("CLIENT_ERROR bad command line format\r\n")
	textBadChunk    = []byte("CLIENT_ERROR bad data chunk\r\n")
	textBadDelta    = []byte("CLIENT_ERROR invalid numeric delta argument\r\n")
	textNonNumeric  = []byte("CLIENT_ERROR cannot increment or decrement non-numeric value\r\n")
	textStoreResult = [...][]byte{
		Stored:    []byte(Stored.String() + "\r\n"),
		NotStored: []byte(NotStored.String() + "\r\n"),
		Exists:    []byte(Exists.String() + "\r\n"),
		NotFound:  []byte(NotFound.String() + "\r\n"),
		TooLarge:  []byte(TooLarge.String() + "\r\n"),
		OOM:       []byte(OOM.String() + "\r\n"),
	}
)

// storeVerbs names the storage verbs by StoreOp* code.
var storeVerbs = [...]string{
	StoreOpAdd:     "add",
	StoreOpReplace: "replace",
	StoreOpAppend:  "append",
	StoreOpPrepend: "prepend",
	StoreOpCas:     "cas",
	StoreOpSet:     "set",
}

// StoreVerb reports the text-protocol verb of a StoreOp* code ("" for
// an unknown one).
func StoreVerb(op uint8) string {
	if int(op) >= len(storeVerbs) {
		return ""
	}
	return storeVerbs[op]
}

// storeOpOf is StoreVerb's inverse over a wire token (0: not a storage
// verb).
func storeOpOf(verb []byte) uint8 {
	for op := StoreOpAdd; int(op) < len(storeVerbs); op++ {
		if string(verb) == storeVerbs[op] {
			return op
		}
	}
	return 0
}

// ReadTextLine reads one line off r and returns it without its
// terminator (the trailing run of \r and \n). The slice aliases r's
// buffer and is valid only until the next read on r. A line longer than
// that buffer — a multi-key get runs to tens of KB — is assembled in
// *spill, which is reused across calls and released once a line has
// grown it past stagingMax.
func ReadTextLine(r *bufio.Reader, spill *[]byte) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		long := append((*spill)[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = r.ReadSlice('\n')
			long = append(long, line...)
		}
		if *spill = long[:0]; cap(long) > stagingMax {
			*spill = nil
		}
		line = long
	}
	if err != nil {
		return nil, err
	}
	n := len(line)
	for n > 0 && (line[n-1] == '\n' || line[n-1] == '\r') {
		n--
	}
	return line[:n], nil
}

// nextTextToken splits the first token off line. Tokens are separated
// by runs of ASCII space and by nothing else, as in memcached 1.4.5's
// tokenize_command: a tab, a NUL or a multi-byte UTF-8 space (U+00A0,
// U+0085) is part of a token — mcclient.CheckKey admits such keys, and
// the AM path carries them. tok is nil when line holds no further token.
func nextTextToken(line []byte) (tok, rest []byte) {
	for len(line) > 0 && line[0] == ' ' {
		line = line[1:]
	}
	if len(line) == 0 {
		return nil, nil
	}
	if i := bytes.IndexByte(line, ' '); i >= 0 {
		return line[:i], line[i+1:]
	}
	return line, nil
}

// textTokens splits line into f, returning how many tokens line holds —
// which may be more than len(f); the surplus is counted, not kept.
func textTokens(line []byte, f [][]byte) int {
	n := 0
	for tok, rest := nextTextToken(line); tok != nil; tok, rest = nextTextToken(rest) {
		if n < len(f) {
			f[n] = tok
		}
		n++
	}
	return n
}

// ---- requests (client → server) ----------------------------------------

// AppendTextGet appends a retrieval command for keys: "gets" when the
// caller wants CAS ids, "get" otherwise.
func AppendTextGet(dst []byte, withCAS bool, keys ...string) []byte {
	dst = append(dst, "get"...)
	if withCAS {
		dst = append(dst, 's')
	}
	for _, key := range keys {
		dst = append(dst, ' ')
		dst = append(dst, key...)
	}
	return append(dst, '\r', '\n')
}

// AppendTextStore appends a storage command — op is a StoreOp* code;
// casID travels only with StoreOpCas — and its data block.
func AppendTextStore(dst []byte, op uint8, key string, flags uint32, exptime int64, value []byte, casID uint64, noreply bool) []byte {
	dst = append(dst, StoreVerb(op)...)
	dst = append(dst, ' ')
	dst = append(dst, key...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(flags), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, exptime, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(len(value)), 10)
	if op == StoreOpCas {
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, casID, 10)
	}
	if noreply {
		dst = append(dst, " noreply"...)
	}
	dst = append(dst, '\r', '\n')
	dst = append(dst, value...)
	return append(dst, '\r', '\n')
}

// AppendTextDelete appends a delete command.
func AppendTextDelete(dst []byte, key string) []byte {
	dst = append(dst, "delete "...)
	dst = append(dst, key...)
	return append(dst, '\r', '\n')
}

// AppendTextIncrDecr appends an incr or decr command.
func AppendTextIncrDecr(dst []byte, incr bool, key string, delta uint64) []byte {
	if incr {
		dst = append(dst, "incr "...)
	} else {
		dst = append(dst, "decr "...)
	}
	dst = append(dst, key...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, delta, 10)
	return append(dst, '\r', '\n')
}

// textStoreCmd is a storage command line as the server parsed it.
type textStoreCmd struct {
	key     []byte // aliases the line
	flags   uint32
	exptime int64
	nbytes  int
	casID   uint64
	noreply bool
}

// textParse is what a storage command line amounts to.
type textParse uint8

const (
	textParsed    textParse = iota
	textArity               // wrong token count: ERROR, no data block consumed
	textBadFields           // unparsable field or oversized key; nbytes >= 0 says a data block of that size follows
)

// parseTextStore decodes the arguments of a storage command (everything
// after the verb). On textBadFields, c.nbytes is the declared block
// size when that field alone was sound, and -1 otherwise.
func parseTextStore(op uint8, args []byte) (c textStoreCmd, verdict textParse) {
	var f [6][]byte
	want := 4
	if op == StoreOpCas {
		want = 5
	}
	n := textTokens(args, f[:])
	c.noreply = n == want+1 && string(f[want]) == "noreply"
	if n < want || (n > want && !c.noreply) {
		return c, textArity
	}
	c.key = f[0]
	flags, err1 := strconv.ParseUint(string(f[1]), 10, 32)
	exptime, err2 := strconv.ParseInt(string(f[2]), 10, 64)
	nbytes, err3 := strconv.Atoi(string(f[3]))
	var err4 error
	if op == StoreOpCas {
		c.casID, err4 = strconv.ParseUint(string(f[4]), 10, 64)
	}
	c.flags, c.exptime, c.nbytes = uint32(flags), exptime, nbytes
	if err3 != nil || nbytes < 0 {
		c.nbytes = -1
		return c, textBadFields
	}
	if err1 != nil || err2 != nil || err4 != nil || len(c.key) > maxKeyLen {
		return c, textBadFields
	}
	return c, textParsed
}

// ---- replies (server → client) -------------------------------------------

// appendTextValue appends one retrieval hit: the VALUE line (with the
// CAS id for a "gets") and the data block.
func appendTextValue(dst []byte, key string, flags uint32, value []byte, casID uint64, withCAS bool) []byte {
	dst = append(dst, "VALUE "...)
	dst = append(dst, key...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(flags), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(len(value)), 10)
	if withCAS {
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, casID, 10)
	}
	dst = append(dst, '\r', '\n')
	dst = append(dst, value...)
	return append(dst, '\r', '\n')
}

// TextValue is a parsed VALUE line; Key aliases the line.
type TextValue struct {
	Key   []byte
	Flags uint32
	Len   int
	CAS   uint64 // 0 unless the line carried one (a "gets" reply)
}

// ParseTextValue decodes "VALUE <key> <flags> <bytes> [<cas>]".
func ParseTextValue(line []byte) (v TextValue, ok bool) {
	var f [5][]byte
	n := textTokens(line, f[:])
	if n < 4 || n > 5 || string(f[0]) != "VALUE" {
		return v, false
	}
	flags, err1 := strconv.ParseUint(string(f[2]), 10, 32)
	size, err2 := strconv.Atoi(string(f[3]))
	var err3 error
	if n == 5 {
		v.CAS, err3 = strconv.ParseUint(string(f[4]), 10, 64)
	}
	if err1 != nil || err2 != nil || err3 != nil || size < 0 {
		return v, false
	}
	v.Key, v.Flags, v.Len = f[1], uint32(flags), size
	return v, true
}

// IsTextEnd reports whether line closes a retrieval or stats reply.
func IsTextEnd(line []byte) bool { return string(line) == "END" }

// ParseTextStoreResult matches a storage command's reply line.
func ParseTextStoreResult(line []byte) (StoreResult, bool) {
	for res, text := range textStoreResult {
		if string(line) == string(text[:len(text)-2]) {
			return StoreResult(res), true
		}
	}
	return 0, false
}

// IsTextDeleted reports whether line is delete's hit reply (anything
// else the server answers to a delete is a miss).
func IsTextDeleted(line []byte) bool { return string(line) == "DELETED" }
