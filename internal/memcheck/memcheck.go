package memcheck

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/mcclient"
	"repro/internal/memcached"
	"repro/internal/simnet"
)

// Result is one memcheck verdict, whichever row of the mode table ran.
// Violation == nil means the run passed; otherwise Shrunk holds a
// minimal failing script and Report a ready-to-print diagnosis with the
// replay line.
type Result struct {
	Config Config
	Script Script // what ran
	// History and Obs are the single-server check's evidence: the
	// engine's recorded transitions and the clients' observations (the
	// fleet check compares step by step and keeps neither).
	History   []*memcached.OpRecord
	Obs       []Observation
	Violation *Violation
	Shrunk    *Script
	Report    string
	Detail    string // one-line summary of a passing run

	// Counters feed the mode's vacuity guards (see Mode.Guards).
	Counters
}

// Run generates the workload for cfg.Seed in the grammar of the row
// cfg.Mode names, executes it, and checks it. On violation it shrinks
// the script (shrinkBudget re-runs) and formats the report.
func Run(cfg Config) *Result { return runNamed(cfg, nil) }

// RunScript executes a specific script (replay path) and checks it.
func RunScript(sc Script, cfg Config) *Result { return runNamed(cfg, &sc) }

func runNamed(cfg Config, script *Script) *Result {
	m, err := ModeByName(cfg.Mode)
	if err != nil {
		return &Result{Config: cfg, Violation: harnessFailure(err)}
	}
	return m.Run(cfg, script)
}

const shrinkBudget = 80

// harness is the one place the two checks part: the fleet row draws the
// churn grammar and is checked step by step against the per-server
// ownership model (fleet.go); every other row draws the single-server
// op mix and is checked from the engine's recorded history (exec.go).
// Either executor returns one execution's verdict, unshrunk.
func (m *Mode) harness() (generate func(uint64, GenConfig) Script, execute func(Script, Config) *Result) {
	if m.Fleet {
		return GenerateFleet, m.executeFleet
	}
	return Generate, m.execute
}

// Run executes one run of the mode (overriding cfg.Mode) from cfg.Seed,
// or replaying script when non-nil. m need not be a row of Modes: any
// Mode value runs, with its Options applied to the deployment.
func (m *Mode) Run(cfg Config, script *Script) *Result {
	cfg.Mode = m.Name
	generate, execute := m.harness()
	var sc Script
	if script != nil {
		sc = *script
	} else {
		sc = generate(cfg.Seed, GenConfig{
			Clients: cfg.Clients, Ops: cfg.Ops,
			Pressure: cfg.Pressure, NoBursts: cfg.NoBursts,
		})
	}
	res := execute(sc, cfg)
	if res.Violation == nil {
		return res
	}
	fails := func(cand Script) bool { return execute(cand, cfg).Violation != nil }
	shrunk := Shrink(sc, fails, shrinkBudget)
	res.Shrunk = &shrunk
	res.Report = formatReport(res)
	return res
}

// arm finishes the deployment options an executor starts from and builds
// its clients' behaviours: the row's datapath armed and, with cfg.Faults,
// a 1 % lossy fabric plus the retries that ride it out.
func (m *Mode) arm(cfg Config, opts cluster.Options) (cluster.Options, mcclient.Behaviors) {
	b := mcclient.DefaultBehaviors()
	if cfg.Faults {
		opts.Faults = cluster.LossyFaults(1.0, cfg.Seed^0x5eed)
		b.Retries = 3
		b.RetryBackoff = 200 * simnet.Microsecond
		if cfg.Transport == cluster.UCRIB {
			// UCR is unreliable datagram-style at the AM layer: lost
			// packets need a client-side timeout to trigger the retry.
			// Socket transports model reliable streams and retransmit
			// below the client. Clean runs leave the timeout unset even
			// in UD mode — flow-control credits mean a lossless fabric
			// drops no datagrams, and worker clocks running ahead of a
			// client's would turn the virtual deadline into spurious
			// failures. UD retransmission is therefore only exercised
			// (and only vacuity-checked) under Faults.
			b.OpTimeout = 4 * simnet.Millisecond
		}
	}
	if m.Options != nil {
		m.Options(&opts)
	}
	return opts, b
}

// harnessFailure is the verdict for a run the harness could not carry
// out (an operation failed in a way the configuration cannot explain).
func harnessFailure(err error) *Violation {
	return &Violation{Msg: "harness: " + err.Error()}
}

// FormatHistory renders the recorded history one line per transition,
// every virtual timestamp included: two runs of one Config must agree on
// all of it, pipelined bursts and lossy fabrics included.
func FormatHistory(recs []*memcached.OpRecord) string {
	var b strings.Builder
	for _, r := range recs {
		b.WriteString(formatRecord(r))
		b.WriteByte('\n')
	}
	return b.String()
}

func formatRecord(r *memcached.OpRecord) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%5d %-8s %-5s", r.Seq, r.Kind, r.Key)
	storeClass := false
	switch r.Kind {
	case memcached.RecSet, memcached.RecAdd, memcached.RecReplace,
		memcached.RecAppend, memcached.RecPrepend, memcached.RecCas:
		storeClass = true
	}
	if storeClass {
		fmt.Fprintf(&b, " res=%s", r.Res)
	}
	switch r.Kind {
	case memcached.RecGet, memcached.RecDelete, memcached.RecTouch,
		memcached.RecIncr, memcached.RecDecr:
		fmt.Fprintf(&b, " hit=%v", r.Hit)
	}
	if len(r.Value) > 0 {
		fmt.Fprintf(&b, " val=%s", quoteShort(r.Value))
	}
	if len(r.Arg) > 0 {
		fmt.Fprintf(&b, " arg=%s", quoteShort(r.Arg))
	}
	if len(r.OldValue) > 0 {
		fmt.Fprintf(&b, " old=%s", quoteShort(r.OldValue))
	}
	if storeClass || (r.Kind == memcached.RecGet && r.Hit) {
		fmt.Fprintf(&b, " flags=%d", r.Flags)
	}
	if r.Exptime != 0 {
		fmt.Fprintf(&b, " exptime=%d", r.Exptime)
	}
	if r.CasReq != 0 {
		fmt.Fprintf(&b, " casreq=%d", r.CasReq)
	}
	if r.NewCAS != 0 {
		fmt.Fprintf(&b, " newcas=%d", r.NewCAS)
	}
	if r.OldCAS != 0 {
		fmt.Fprintf(&b, " oldcas=%d", r.OldCAS)
	}
	switch r.Kind {
	case memcached.RecIncr, memcached.RecDecr:
		fmt.Fprintf(&b, " delta=%d num=%d bad=%v oom=%v", r.Delta, r.NewNum, r.Bad, r.OOM)
	}
	fmt.Fprintf(&b, " now=%d", int64(r.Now))
	if r.ExpireAt != 0 {
		fmt.Fprintf(&b, " expireAt=%d", int64(r.ExpireAt))
	}
	if r.SetAt != 0 {
		fmt.Fprintf(&b, " setAt=%d", int64(r.SetAt))
	}
	if r.Horizon != 0 {
		fmt.Fprintf(&b, " horizon=%d", int64(r.Horizon))
	}
	return b.String()
}

// quoteShort quotes a value, eliding the middle of long ones (pressure
// values run to 60 KB; reports need the identity prefix, not the bulk).
func quoteShort(v []byte) string {
	const keep = 24
	if len(v) <= 2*keep {
		return fmt.Sprintf("%q", v)
	}
	return fmt.Sprintf("%q..%q(len %d)", v[:keep], v[len(v)-8:], len(v))
}

func formatReport(res *Result) string {
	cfg := res.Config
	var b strings.Builder
	b.WriteString("memcheck: VIOLATION\n")
	mode := cfg.Mode
	if mode == "" {
		mode = Modes[0].Name
	}
	fmt.Fprintf(&b, "  mode=%s seed=%d transport=%s faults=%v pressure=%v nobursts=%v clients=%d ops=%d\n",
		mode, cfg.Seed, cfg.Transport, cfg.Faults, cfg.Pressure, cfg.NoBursts, res.Script.Clients, len(res.Script.Ops))
	fmt.Fprintf(&b, "  violation: %s\n", res.Violation.Error())
	fmt.Fprintf(&b, "  counters: %s\n", &res.Counters)
	replay := fmt.Sprintf("go run ./cmd/mccheck -mode %s -transport %s -seed %d", mode, cfg.Transport, cfg.Seed)
	if cfg.Faults {
		replay += " -faults"
	}
	if cfg.Pressure {
		replay += " -pressure"
	}
	if cfg.NoBursts {
		replay += " -nobursts"
	}
	if cfg.Servers != 0 {
		replay += fmt.Sprintf(" -servers %d", cfg.Servers)
	}
	if cfg.Clients != 0 {
		replay += fmt.Sprintf(" -clients %d", cfg.Clients)
	}
	if cfg.Ops != 0 {
		replay += fmt.Sprintf(" -ops %d", cfg.Ops)
	}
	fmt.Fprintf(&b, "  replay: %s\n", replay)
	if res.Shrunk != nil {
		fmt.Fprintf(&b, "  shrunk script (%d ops, from %d; save and replay with -script FILE):\n", len(res.Shrunk.Ops), len(res.Script.Ops))
		for _, line := range strings.Split(strings.TrimRight(FormatScript(*res.Shrunk), "\n"), "\n") {
			b.WriteString("    " + line + "\n")
		}
	}
	if n := len(res.History); n > 0 {
		// Show the window ending just past the offending record (or the
		// tail, for violations not tied to one record).
		end := n
		if res.Violation.Seq != 0 {
			for i, r := range res.History {
				if r.Seq == res.Violation.Seq {
					end = i + 4
					break
				}
			}
			if end > n {
				end = n
			}
		}
		start := end - 20
		if start < 0 {
			start = 0
		}
		fmt.Fprintf(&b, "  history records %d..%d (of %d):\n", start, end-1, n)
		for _, r := range res.History[start:end] {
			b.WriteString("    " + formatRecord(r) + "\n")
		}
	}
	return b.String()
}
