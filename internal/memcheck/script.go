// Package memcheck is a deterministic model checker for the full
// memcached stack: it drives randomized workloads through real clients,
// transports and server against the real engine in virtual time,
// records the engine's totally-ordered transition history (see
// memcached/record.go), and replays that history against a plain-map
// reference model. Because every transition carries a global sequence
// number taken under the store's one owner, the recorded order IS a
// linearization — checking is a single O(n log n) pass (sort by Seq,
// then fold), with no Wing–Gong interleaving search.
package memcheck

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/simnet"
)

// opCode is one scripted client operation.
type opCode uint8

// Script operation codes.
const (
	opSet opCode = iota + 1
	opAdd
	opReplace
	opAppend
	opPrepend
	opCas
	opGet
	opMGet
	opDelete
	opIncr
	opDecr
	opAdvance
	opFlush
	opBurst
	// Fleet-mode churn ops (only generateFleet emits them; the
	// single-server executor rejects them). Join brings up a fresh
	// server; leave/crash target the delta'th live member modulo the
	// CURRENT live count, so dropping earlier churn ops during ddmin
	// still yields a runnable script.
	opJoin
	opLeave
	opCrash
)

var opNames = map[opCode]string{
	opSet: "set", opAdd: "add", opReplace: "replace", opAppend: "append",
	opPrepend: "prepend", opCas: "cas", opGet: "get", opMGet: "mget",
	opDelete: "del", opIncr: "incr", opDecr: "decr", opAdvance: "adv",
	opFlush: "flush", opBurst: "burst",
	opJoin: "join", opLeave: "leave", opCrash: "crash",
}

var opByName = func() map[string]opCode {
	m := make(map[string]opCode, len(opNames))
	for k, v := range opNames {
		m[v] = k
	}
	return m
}()

// scriptOp is one operation in a workload script. Which fields matter
// depends on code; the zero values are valid everywhere else.
type scriptOp struct {
	client  int
	code    opCode
	key     string
	keys    []string // mget
	value   []byte
	flags   uint32
	exptime int64
	delta   uint64          // incr/decr
	stale   bool            // cas: present a deliberately stale CAS id
	advance simnet.Duration // adv
	window  int             // burst
	sub     []scriptOp      // burst sub-ops (set/get/del only)
}

// Script is a replayable workload: the seed that generated it (0 for
// hand-written scripts) plus the operation list.
type Script struct {
	seed    uint64
	clients int
	ops     []scriptOp
}

// genConfig tunes generate.
type genConfig struct {
	clients int
	ops     int
	// pressure shifts the value-size mix upward so a small-memory store
	// evicts constantly.
	pressure bool
	// noBursts drops pipelined bursts AND enables the TTL mix (nonzero
	// exptimes, multi-second advances). The two are coupled on purpose:
	// a burst's ops are stamped by worker clocks that run ahead of the
	// issuing client's, so expiry boundaries only appear in scripts
	// whose every op is stamped in issue order.
	noBursts bool
}

// Key universes. Regular keys take the full op mix; counter keys take
// incr/decr plus numeric (and occasionally junk) sets; burst keys are
// only ever stored with exptime 0, keeping burst outcomes independent
// of the burst's timestamps.
var (
	regularKeys = makeKeys("k", 20)
	counterKeys = makeKeys("n", 4)
	burstKeys   = makeKeys("b", 8)
)

func makeKeys(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%02d", prefix, i)
	}
	return out
}

// generate builds a deterministic random workload from seed.
func generate(seed uint64, cfg genConfig) Script {
	if cfg.clients <= 0 {
		cfg.clients = 3
	}
	if cfg.ops <= 0 {
		cfg.ops = 400
	}
	rng := simnet.NewRand(seed)
	g := &generator{rng: rng, cfg: cfg}
	sc := Script{seed: seed, clients: cfg.clients}
	for i := 0; i < cfg.ops; i++ {
		sc.ops = append(sc.ops, g.next())
	}
	return sc
}

type generator struct {
	rng  *simnet.Rand
	cfg  genConfig
	vseq int // value uniqueness counter
}

func (g *generator) key() string     { return regularKeys[g.rng.Intn(len(regularKeys))] }
func (g *generator) counter() string { return counterKeys[g.rng.Intn(len(counterKeys))] }
func (g *generator) bkey() string    { return burstKeys[g.rng.Intn(len(burstKeys))] }

// value builds a unique, printable value so any stale read is
// unambiguous in a report.
func (g *generator) value() []byte {
	return g.sizedValue(4 + g.rng.Intn(28))
}

// bigValue (pressure mode, plain sets only) makes every pressure set
// land in ONE large slab class (~101 KB chunks with the 1.25 growth
// factor, 10 per page): eviction is per-class, so a size
// spread across classes would starve the victim scan instead of
// exercising it. Only opSet carries these: over UCR a plain set is the
// one store with a rendezvous path past the eager threshold.
func (g *generator) bigValue() []byte {
	return g.sizedValue(100000 + g.rng.Intn(1000))
}

func (g *generator) sizedValue(n int) []byte {
	g.vseq++
	s := fmt.Sprintf("v%05d.", g.vseq)
	b := make([]byte, 0, n)
	b = append(b, s...)
	for len(b) < n {
		b = append(b, byte('a'+g.rng.Intn(26)))
	}
	return b
}

// exptime picks an expiry for a store. Zero unless the TTL mix is on;
// the nonzero choices cover short relative TTLs (reachable via adv
// ops), the 30-day relative/absolute cutover, and absolute times.
func (g *generator) exptime() int64 {
	if !g.cfg.noBursts || g.rng.Intn(10) < 7 {
		return 0
	}
	switch g.rng.Intn(5) {
	case 0:
		return 1
	case 1:
		return 2
	case 2:
		return 5
	case 3:
		return 2592000 // exactly 30 days: still relative
	default:
		return 2592001 // past the cutover: absolute virtual seconds
	}
}

func (g *generator) next() scriptOp {
	c := g.rng.Intn(g.cfg.clients)
	w := g.rng.Intn(100)
	switch {
	case w < 18:
		v := g.value()
		if g.cfg.pressure {
			v = g.bigValue()
		}
		return scriptOp{client: c, code: opSet, key: g.key(), value: v,
			flags: uint32(g.rng.Intn(1 << 16)), exptime: g.exptime()}
	case w < 24:
		return scriptOp{client: c, code: opAdd, key: g.key(), value: g.value(),
			flags: uint32(g.rng.Intn(256)), exptime: g.exptime()}
	case w < 30:
		return scriptOp{client: c, code: opReplace, key: g.key(), value: g.value(),
			flags: uint32(g.rng.Intn(256)), exptime: g.exptime()}
	case w < 35:
		return scriptOp{client: c, code: opAppend, key: g.key(), value: g.value()}
	case w < 39:
		return scriptOp{client: c, code: opPrepend, key: g.key(), value: g.value()}
	case w < 47:
		return scriptOp{client: c, code: opCas, key: g.key(), value: g.value(),
			flags: uint32(g.rng.Intn(256)), exptime: g.exptime(), stale: g.rng.Intn(2) == 0}
	case w < 65:
		// Reads hit the whole keyspace, counters and burst keys included.
		k := g.key()
		if r := g.rng.Intn(10); r < 2 {
			k = g.counter()
		} else if r < 4 {
			k = g.bkey()
		}
		return scriptOp{client: c, code: opGet, key: k}
	case w < 71:
		n := 2 + g.rng.Intn(5)
		keys := make([]string, 0, n)
		for len(keys) < n {
			keys = append(keys, g.key())
		}
		return scriptOp{client: c, code: opMGet, keys: keys}
	case w < 77:
		k := g.key()
		if g.rng.Intn(5) == 0 {
			k = g.counter()
		}
		return scriptOp{client: c, code: opDelete, key: k}
	case w < 82:
		// Counter setup: mostly numeric (sometimes huge, to reach the
		// 2^64−1 wraparound), occasionally junk to exercise the
		// non-numeric CLIENT_ERROR path.
		var v []byte
		switch g.rng.Intn(6) {
		case 0:
			v = []byte("not-a-number")
		case 1:
			v = []byte("18446744073709551615")
		default:
			v = []byte(strconv.Itoa(g.rng.Intn(100000)))
		}
		return scriptOp{client: c, code: opSet, key: g.counter(), value: v}
	case w < 87:
		return scriptOp{client: c, code: opIncr, key: g.counter(), delta: uint64(1 + g.rng.Intn(1000))}
	case w < 90:
		return scriptOp{client: c, code: opDecr, key: g.counter(), delta: uint64(1 + g.rng.Intn(1000))}
	case w < 97:
		d := simnet.Duration(10+g.rng.Intn(5000)) * simnet.Microsecond
		if g.cfg.noBursts && g.rng.Intn(6) == 0 {
			// Big jumps make short TTLs actually expire mid-script.
			d = simnet.Duration(1+g.rng.Intn(3)) * simnet.Second
		}
		return scriptOp{client: c, code: opAdvance, advance: d}
	case w < 98:
		return scriptOp{client: c, code: opFlush}
	default:
		if g.cfg.noBursts {
			return scriptOp{client: c, code: opGet, key: g.key()}
		}
		return g.burst(c)
	}
}

// fleetKeys is the fleet-mode key universe: wide enough to spread over
// many owners so churn actually moves keys, narrow enough that every
// key sees repeated traffic (read repair needs a get after a move).
var fleetKeys = makeKeys("f", 32)

// generateFleet builds a deterministic fleet workload from seed:
// set/get/del over fleetKeys interleaved with join/leave/crash churn
// and small clock advances. Only ops the fleet client supports appear;
// everything stores with exptime 0 (ownership, not TTL, is under test),
// so of cfg only Clients and Ops (default 300) apply.
func generateFleet(seed uint64, cfg genConfig) Script {
	if cfg.clients <= 0 {
		cfg.clients = 3
	}
	if cfg.ops <= 0 {
		cfg.ops = 300
	}
	rng := simnet.NewRand(seed)
	g := &generator{rng: rng, cfg: genConfig{clients: cfg.clients}}
	sc := Script{seed: seed, clients: cfg.clients}
	for i := 0; i < cfg.ops; i++ {
		c := rng.Intn(cfg.clients)
		w := rng.Intn(100)
		var op scriptOp
		fkey := fleetKeys[rng.Intn(len(fleetKeys))]
		switch {
		case w < 30:
			op = scriptOp{client: c, code: opSet, key: fkey, value: g.value(),
				flags: uint32(rng.Intn(256))}
		case w < 72:
			op = scriptOp{client: c, code: opGet, key: fkey}
		case w < 80:
			op = scriptOp{client: c, code: opDelete, key: fkey}
		case w < 88:
			op = scriptOp{client: c, code: opAdvance,
				advance: simnet.Duration(10+rng.Intn(2000)) * simnet.Microsecond}
		case w < 92:
			op = scriptOp{client: c, code: opJoin}
		case w < 96:
			op = scriptOp{client: c, code: opLeave, delta: uint64(rng.Intn(1 << 16))}
		default:
			op = scriptOp{client: c, code: opCrash, delta: uint64(rng.Intn(1 << 16))}
		}
		sc.ops = append(sc.ops, op)
	}
	return sc
}

func (g *generator) burst(c int) scriptOp {
	window := 4 + g.rng.Intn(13)
	n := window + g.rng.Intn(window+1)
	sub := make([]scriptOp, 0, n)
	for i := 0; i < n; i++ {
		switch g.rng.Intn(4) {
		case 0, 1:
			sub = append(sub, scriptOp{code: opSet, key: g.bkey(), value: g.value(),
				flags: uint32(g.rng.Intn(256))})
		case 2:
			sub = append(sub, scriptOp{code: opGet, key: g.bkey()})
		default:
			sub = append(sub, scriptOp{code: opDelete, key: g.bkey()})
		}
	}
	return scriptOp{client: c, code: opBurst, window: window, sub: sub}
}

// formatScript renders a script in the replayable text form ParseScript
// reads back.
func formatScript(sc Script) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# memcheck script seed=%d clients=%d ops=%d\n", sc.seed, sc.clients, len(sc.ops))
	for _, op := range sc.ops {
		b.WriteString(formatOp(op, true))
		b.WriteByte('\n')
	}
	return b.String()
}

func formatOp(op scriptOp, withClient bool) string {
	var b strings.Builder
	if withClient {
		fmt.Fprintf(&b, "%d ", op.client)
	}
	b.WriteString(opNames[op.code])
	switch op.code {
	case opSet, opAdd, opReplace, opCas:
		mode := ""
		if op.code == opCas {
			mode = " fresh"
			if op.stale {
				mode = " stale"
			}
		}
		fmt.Fprintf(&b, " %s %d %d%s %s", op.key, op.flags, op.exptime, mode, strconv.Quote(string(op.value)))
	case opAppend, opPrepend:
		fmt.Fprintf(&b, " %s %s", op.key, strconv.Quote(string(op.value)))
	case opGet, opDelete:
		fmt.Fprintf(&b, " %s", op.key)
	case opMGet:
		fmt.Fprintf(&b, " %s", strings.Join(op.keys, ","))
	case opIncr, opDecr:
		fmt.Fprintf(&b, " %s %d", op.key, op.delta)
	case opAdvance:
		fmt.Fprintf(&b, " %d", int64(op.advance))
	case opFlush, opJoin:
	case opLeave, opCrash:
		fmt.Fprintf(&b, " %d", op.delta)
	case opBurst:
		fmt.Fprintf(&b, " %d", op.window)
		for i, s := range op.sub {
			sep := " "
			if i > 0 {
				sep = " ; "
			}
			b.WriteString(sep + formatOp(s, false))
		}
	}
	return b.String()
}

// ParseScript reads the formatScript form back.
func ParseScript(text string) (Script, error) {
	sc := Script{clients: 1}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fmt.Sscanf(line, "# memcheck script seed=%d clients=%d", &sc.seed, &sc.clients)
			continue
		}
		op, err := parseOpLine(line)
		if err != nil {
			return Script{}, fmt.Errorf("line %d: %w", ln+1, err)
		}
		if op.client >= sc.clients {
			sc.clients = op.client + 1
		}
		sc.ops = append(sc.ops, op)
	}
	return sc, nil
}

func parseOpLine(line string) (scriptOp, error) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return scriptOp{}, fmt.Errorf("short line %q", line)
	}
	client, err := strconv.Atoi(f[0])
	if err != nil {
		return scriptOp{}, fmt.Errorf("bad client %q", f[0])
	}
	op, err := parseOp(f[1:])
	if err != nil {
		return scriptOp{}, err
	}
	op.client = client
	return op, nil
}

func parseOp(f []string) (scriptOp, error) {
	code, ok := opByName[f[0]]
	if !ok {
		return scriptOp{}, fmt.Errorf("unknown op %q", f[0])
	}
	op := scriptOp{code: code}
	bad := func() (scriptOp, error) {
		return scriptOp{}, fmt.Errorf("malformed %s op: %q", f[0], strings.Join(f, " "))
	}
	arg := func(i int) string {
		if i < len(f) {
			return f[i]
		}
		return ""
	}
	switch code {
	case opSet, opAdd, opReplace, opCas:
		vi := 4
		if code == opCas {
			op.stale = arg(4) == "stale"
			vi = 5
		}
		if len(f) <= vi {
			return bad()
		}
		flags, e1 := strconv.ParseUint(arg(2), 10, 32)
		expt, e2 := strconv.ParseInt(arg(3), 10, 64)
		// The value may contain spaces: rejoin the quoted tail.
		val, e3 := strconv.Unquote(strings.Join(f[vi:], " "))
		if e1 != nil || e2 != nil || e3 != nil {
			return bad()
		}
		op.key, op.flags, op.exptime, op.value = arg(1), uint32(flags), expt, []byte(val)
	case opAppend, opPrepend:
		if len(f) <= 2 {
			return bad()
		}
		val, err := strconv.Unquote(strings.Join(f[2:], " "))
		if err != nil {
			return bad()
		}
		op.key, op.value = arg(1), []byte(val)
	case opGet, opDelete:
		if arg(1) == "" {
			return bad()
		}
		op.key = arg(1)
	case opMGet:
		if arg(1) == "" {
			return bad()
		}
		op.keys = strings.Split(arg(1), ",")
	case opIncr, opDecr:
		d, err := strconv.ParseUint(arg(2), 10, 64)
		if err != nil {
			return bad()
		}
		op.key, op.delta = arg(1), d
	case opAdvance:
		d, err := strconv.ParseInt(arg(1), 10, 64)
		if err != nil {
			return bad()
		}
		op.advance = simnet.Duration(d)
	case opFlush, opJoin:
	case opLeave, opCrash:
		d, err := strconv.ParseUint(arg(1), 10, 64)
		if err != nil {
			return bad()
		}
		op.delta = d
	case opBurst:
		w, err := strconv.Atoi(arg(1))
		if err != nil || len(f) < 3 {
			return bad()
		}
		op.window = w
		for _, part := range strings.Split(strings.Join(f[2:], " "), " ; ") {
			sub, err := parseOp(strings.Fields(part))
			if err != nil {
				return scriptOp{}, err
			}
			op.sub = append(op.sub, sub)
		}
	}
	return op, nil
}

// sortKeys returns a map's keys sorted (deterministic iteration).
func sortKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
