package memcheck

import (
	"fmt"
	"strings"

	"repro/internal/memcached"
)

// Result is one memcheck verdict. Violation == nil means the run
// passed; otherwise Shrunk holds a minimal failing script and Report a
// ready-to-print diagnosis with the replay line.
type Result struct {
	Config    Config
	Script    Script
	History   []*memcached.OpRecord
	Obs       []Observation
	Violation *Violation
	Shrunk    *Script
	Report    string

	// Counters feed the mode's vacuity guards (see Mode.Guards).
	Counters
}

// Run generates the workload for cfg.Seed, executes it, and checks the
// history. On violation it shrinks the script (shrinkBudget re-runs)
// and formats the report.
func Run(cfg Config) *Result {
	sc := Generate(cfg.Seed, GenConfig{
		Clients: cfg.Clients, Ops: cfg.Ops,
		Pressure: cfg.Pressure, NoBursts: cfg.NoBursts,
	})
	return RunScript(sc, cfg)
}

const shrinkBudget = 80

// RunScript executes a specific script (replay path) and checks it.
func RunScript(sc Script, cfg Config) *Result {
	res := &Result{Config: cfg, Script: sc}
	out, err := execute(sc, cfg)
	if out != nil {
		res.History = out.Records
		res.Obs = out.Obs
		res.Counters = out.Counters
	}
	res.Violation = verdict(out, err, cfg)
	if res.Violation == nil {
		return res
	}

	fails := func(cand Script) bool {
		o, e := execute(cand, cfg)
		return verdict(o, e, cfg) != nil
	}
	shrunk := Shrink(sc, fails, shrinkBudget)
	res.Shrunk = &shrunk
	res.Report = formatReport(res)
	return res
}

// verdict classifies one execution: harness failure, model divergence,
// or cross-check mismatch (in that order).
func verdict(out *runOutcome, err error, cfg Config) *Violation {
	if err != nil {
		return &Violation{Msg: "harness: " + err.Error()}
	}
	if v := CheckModel(out.Records); v != nil {
		return v
	}
	return CrossCheck(out.Records, out.Obs, cfg.Faults)
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
