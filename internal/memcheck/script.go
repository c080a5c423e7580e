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

// OpCode is one scripted client operation.
type OpCode uint8

// Script operation codes.
const (
	OpSet OpCode = iota + 1
	OpAdd
	OpReplace
	OpAppend
	OpPrepend
	OpCas
	OpGet
	OpMGet
	OpDelete
	OpIncr
	OpDecr
	OpAdvance
	OpFlush
	OpBurst
	// Fleet-mode churn ops (only generateFleet emits them; the
	// single-server executor rejects them). Join brings up a fresh
	// server; leave/crash target the Delta'th live member modulo the
	// CURRENT live count, so dropping earlier churn ops during ddmin
	// still yields a runnable script.
	OpJoin
	OpLeave
	OpCrash
)

var opNames = map[OpCode]string{
	OpSet: "set", OpAdd: "add", OpReplace: "replace", OpAppend: "append",
	OpPrepend: "prepend", OpCas: "cas", OpGet: "get", OpMGet: "mget",
	OpDelete: "del", OpIncr: "incr", OpDecr: "decr", OpAdvance: "adv",
	OpFlush: "flush", OpBurst: "burst",
	OpJoin: "join", OpLeave: "leave", OpCrash: "crash",
}

var opByName = func() map[string]OpCode {
	m := make(map[string]OpCode, len(opNames))
	for k, v := range opNames {
		m[v] = k
	}
	return m
}()

// ScriptOp is one operation in a workload script. Which fields matter
// depends on Code; the zero values are valid everywhere else.
type ScriptOp struct {
	Client  int
	Code    OpCode
	Key     string
	Keys    []string // mget
	Value   []byte
	Flags   uint32
	Exptime int64
	Delta   uint64          // incr/decr
	Stale   bool            // cas: present a deliberately stale CAS id
	Advance simnet.Duration // adv
	Window  int             // burst
	Sub     []ScriptOp      // burst sub-ops (set/get/del only)
}

// Script is a replayable workload: the seed that generated it (0 for
// hand-written scripts) plus the operation list.
type Script struct {
	Seed    uint64
	Clients int
	Ops     []ScriptOp
}

// GenConfig tunes generate.
type GenConfig struct {
	Clients int
	Ops     int
	// Pressure shifts the value-size mix upward so a small-memory store
	// evicts constantly.
	Pressure bool
	// NoBursts drops pipelined bursts AND enables the TTL mix (nonzero
	// exptimes, multi-second advances). The two are coupled on purpose:
	// a burst's ops are stamped by worker clocks that run ahead of the
	// issuing client's, so expiry boundaries only appear in scripts
	// whose every op is stamped in issue order.
	NoBursts bool
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
func generate(seed uint64, cfg GenConfig) Script {
	if cfg.Clients <= 0 {
		cfg.Clients = 3
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 400
	}
	rng := simnet.NewRand(seed)
	g := &generator{rng: rng, cfg: cfg}
	sc := Script{Seed: seed, Clients: cfg.Clients}
	for i := 0; i < cfg.Ops; i++ {
		sc.Ops = append(sc.Ops, g.next())
	}
	return sc
}

type generator struct {
	rng  *simnet.Rand
	cfg  GenConfig
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
// factor, 10 per page): eviction is per-shard AND per-class, so a size
// spread across classes would starve the victim scan instead of
// exercising it. Only OpSet carries these: over UCR a plain set is the
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
	if !g.cfg.NoBursts || g.rng.Intn(10) < 7 {
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

func (g *generator) next() ScriptOp {
	c := g.rng.Intn(g.cfg.Clients)
	w := g.rng.Intn(100)
	switch {
	case w < 18:
		v := g.value()
		if g.cfg.Pressure {
			v = g.bigValue()
		}
		return ScriptOp{Client: c, Code: OpSet, Key: g.key(), Value: v,
			Flags: uint32(g.rng.Intn(1 << 16)), Exptime: g.exptime()}
	case w < 24:
		return ScriptOp{Client: c, Code: OpAdd, Key: g.key(), Value: g.value(),
			Flags: uint32(g.rng.Intn(256)), Exptime: g.exptime()}
	case w < 30:
		return ScriptOp{Client: c, Code: OpReplace, Key: g.key(), Value: g.value(),
			Flags: uint32(g.rng.Intn(256)), Exptime: g.exptime()}
	case w < 35:
		return ScriptOp{Client: c, Code: OpAppend, Key: g.key(), Value: g.value()}
	case w < 39:
		return ScriptOp{Client: c, Code: OpPrepend, Key: g.key(), Value: g.value()}
	case w < 47:
		return ScriptOp{Client: c, Code: OpCas, Key: g.key(), Value: g.value(),
			Flags: uint32(g.rng.Intn(256)), Exptime: g.exptime(), Stale: g.rng.Intn(2) == 0}
	case w < 65:
		// Reads hit the whole keyspace, counters and burst keys included.
		k := g.key()
		if r := g.rng.Intn(10); r < 2 {
			k = g.counter()
		} else if r < 4 {
			k = g.bkey()
		}
		return ScriptOp{Client: c, Code: OpGet, Key: k}
	case w < 71:
		n := 2 + g.rng.Intn(5)
		keys := make([]string, 0, n)
		for len(keys) < n {
			keys = append(keys, g.key())
		}
		return ScriptOp{Client: c, Code: OpMGet, Keys: keys}
	case w < 77:
		k := g.key()
		if g.rng.Intn(5) == 0 {
			k = g.counter()
		}
		return ScriptOp{Client: c, Code: OpDelete, Key: k}
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
		return ScriptOp{Client: c, Code: OpSet, Key: g.counter(), Value: v}
	case w < 87:
		return ScriptOp{Client: c, Code: OpIncr, Key: g.counter(), Delta: uint64(1 + g.rng.Intn(1000))}
	case w < 90:
		return ScriptOp{Client: c, Code: OpDecr, Key: g.counter(), Delta: uint64(1 + g.rng.Intn(1000))}
	case w < 97:
		d := simnet.Duration(10+g.rng.Intn(5000)) * simnet.Microsecond
		if g.cfg.NoBursts && g.rng.Intn(6) == 0 {
			// Big jumps make short TTLs actually expire mid-script.
			d = simnet.Duration(1+g.rng.Intn(3)) * simnet.Second
		}
		return ScriptOp{Client: c, Code: OpAdvance, Advance: d}
	case w < 98:
		return ScriptOp{Client: c, Code: OpFlush}
	default:
		if g.cfg.NoBursts {
			return ScriptOp{Client: c, Code: OpGet, Key: g.key()}
		}
		return g.burst(c)
	}
}

// FleetKeys is the fleet-mode key universe: wide enough to spread over
// many owners so churn actually moves keys, narrow enough that every
// key sees repeated traffic (read repair needs a get after a move).
var FleetKeys = makeKeys("f", 32)

// generateFleet builds a deterministic fleet workload from seed:
// set/get/del over FleetKeys interleaved with join/leave/crash churn
// and small clock advances. Only ops the fleet client supports appear;
// everything stores with exptime 0 (ownership, not TTL, is under test),
// so of cfg only Clients and Ops (default 300) apply.
func generateFleet(seed uint64, cfg GenConfig) Script {
	if cfg.Clients <= 0 {
		cfg.Clients = 3
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 300
	}
	rng := simnet.NewRand(seed)
	g := &generator{rng: rng, cfg: GenConfig{Clients: cfg.Clients}}
	sc := Script{Seed: seed, Clients: cfg.Clients}
	for i := 0; i < cfg.Ops; i++ {
		c := rng.Intn(cfg.Clients)
		w := rng.Intn(100)
		var op ScriptOp
		fkey := FleetKeys[rng.Intn(len(FleetKeys))]
		switch {
		case w < 30:
			op = ScriptOp{Client: c, Code: OpSet, Key: fkey, Value: g.value(),
				Flags: uint32(rng.Intn(256))}
		case w < 72:
			op = ScriptOp{Client: c, Code: OpGet, Key: fkey}
		case w < 80:
			op = ScriptOp{Client: c, Code: OpDelete, Key: fkey}
		case w < 88:
			op = ScriptOp{Client: c, Code: OpAdvance,
				Advance: simnet.Duration(10+rng.Intn(2000)) * simnet.Microsecond}
		case w < 92:
			op = ScriptOp{Client: c, Code: OpJoin}
		case w < 96:
			op = ScriptOp{Client: c, Code: OpLeave, Delta: uint64(rng.Intn(1 << 16))}
		default:
			op = ScriptOp{Client: c, Code: OpCrash, Delta: uint64(rng.Intn(1 << 16))}
		}
		sc.Ops = append(sc.Ops, op)
	}
	return sc
}

func (g *generator) burst(c int) ScriptOp {
	window := 4 + g.rng.Intn(13)
	n := window + g.rng.Intn(window+1)
	sub := make([]ScriptOp, 0, n)
	for i := 0; i < n; i++ {
		switch g.rng.Intn(4) {
		case 0, 1:
			sub = append(sub, ScriptOp{Code: OpSet, Key: g.bkey(), Value: g.value(),
				Flags: uint32(g.rng.Intn(256))})
		case 2:
			sub = append(sub, ScriptOp{Code: OpGet, Key: g.bkey()})
		default:
			sub = append(sub, ScriptOp{Code: OpDelete, Key: g.bkey()})
		}
	}
	return ScriptOp{Client: c, Code: OpBurst, Window: window, Sub: sub}
}

// formatScript renders a script in the replayable text form ParseScript
// reads back.
func formatScript(sc Script) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# memcheck script seed=%d clients=%d ops=%d\n", sc.Seed, sc.Clients, len(sc.Ops))
	for _, op := range sc.Ops {
		b.WriteString(formatOp(op, true))
		b.WriteByte('\n')
	}
	return b.String()
}

func formatOp(op ScriptOp, withClient bool) string {
	var b strings.Builder
	if withClient {
		fmt.Fprintf(&b, "%d ", op.Client)
	}
	b.WriteString(opNames[op.Code])
	switch op.Code {
	case OpSet, OpAdd, OpReplace, OpCas:
		mode := ""
		if op.Code == OpCas {
			mode = " fresh"
			if op.Stale {
				mode = " stale"
			}
		}
		fmt.Fprintf(&b, " %s %d %d%s %s", op.Key, op.Flags, op.Exptime, mode, strconv.Quote(string(op.Value)))
	case OpAppend, OpPrepend:
		fmt.Fprintf(&b, " %s %s", op.Key, strconv.Quote(string(op.Value)))
	case OpGet, OpDelete:
		fmt.Fprintf(&b, " %s", op.Key)
	case OpMGet:
		fmt.Fprintf(&b, " %s", strings.Join(op.Keys, ","))
	case OpIncr, OpDecr:
		fmt.Fprintf(&b, " %s %d", op.Key, op.Delta)
	case OpAdvance:
		fmt.Fprintf(&b, " %d", int64(op.Advance))
	case OpFlush, OpJoin:
	case OpLeave, OpCrash:
		fmt.Fprintf(&b, " %d", op.Delta)
	case OpBurst:
		fmt.Fprintf(&b, " %d", op.Window)
		for i, s := range op.Sub {
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
	sc := Script{Clients: 1}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fmt.Sscanf(line, "# memcheck script seed=%d clients=%d", &sc.Seed, &sc.Clients)
			continue
		}
		op, err := parseOpLine(line)
		if err != nil {
			return Script{}, fmt.Errorf("line %d: %w", ln+1, err)
		}
		if op.Client >= sc.Clients {
			sc.Clients = op.Client + 1
		}
		sc.Ops = append(sc.Ops, op)
	}
	return sc, nil
}

func parseOpLine(line string) (ScriptOp, error) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return ScriptOp{}, fmt.Errorf("short line %q", line)
	}
	client, err := strconv.Atoi(f[0])
	if err != nil {
		return ScriptOp{}, fmt.Errorf("bad client %q", f[0])
	}
	op, err := parseOp(f[1:])
	if err != nil {
		return ScriptOp{}, err
	}
	op.Client = client
	return op, nil
}

func parseOp(f []string) (ScriptOp, error) {
	code, ok := opByName[f[0]]
	if !ok {
		return ScriptOp{}, fmt.Errorf("unknown op %q", f[0])
	}
	op := ScriptOp{Code: code}
	bad := func() (ScriptOp, error) {
		return ScriptOp{}, fmt.Errorf("malformed %s op: %q", f[0], strings.Join(f, " "))
	}
	arg := func(i int) string {
		if i < len(f) {
			return f[i]
		}
		return ""
	}
	switch code {
	case OpSet, OpAdd, OpReplace, OpCas:
		vi := 4
		if code == OpCas {
			op.Stale = arg(4) == "stale"
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
		op.Key, op.Flags, op.Exptime, op.Value = arg(1), uint32(flags), expt, []byte(val)
	case OpAppend, OpPrepend:
		if len(f) <= 2 {
			return bad()
		}
		val, err := strconv.Unquote(strings.Join(f[2:], " "))
		if err != nil {
			return bad()
		}
		op.Key, op.Value = arg(1), []byte(val)
	case OpGet, OpDelete:
		if arg(1) == "" {
			return bad()
		}
		op.Key = arg(1)
	case OpMGet:
		if arg(1) == "" {
			return bad()
		}
		op.Keys = strings.Split(arg(1), ",")
	case OpIncr, OpDecr:
		d, err := strconv.ParseUint(arg(2), 10, 64)
		if err != nil {
			return bad()
		}
		op.Key, op.Delta = arg(1), d
	case OpAdvance:
		d, err := strconv.ParseInt(arg(1), 10, 64)
		if err != nil {
			return bad()
		}
		op.Advance = simnet.Duration(d)
	case OpFlush, OpJoin:
	case OpLeave, OpCrash:
		d, err := strconv.ParseUint(arg(1), 10, 64)
		if err != nil {
			return bad()
		}
		op.Delta = d
	case OpBurst:
		w, err := strconv.Atoi(arg(1))
		if err != nil || len(f) < 3 {
			return bad()
		}
		op.Window = w
		for _, part := range strings.Split(strings.Join(f[2:], " "), " ; ") {
			sub, err := parseOp(strings.Fields(part))
			if err != nil {
				return ScriptOp{}, err
			}
			op.Sub = append(op.Sub, sub)
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
