package memcheck

// Shrinking: given a failing script, find a small script that still
// fails, by re-running candidates. Three reductions, cheapest first:
// ddmin-style chunk deletion over the op list, burst flattening
// (pipelined window → equivalent blocking ops), and client collapsing
// (everything on client 0). Each candidate costs one full execution, so
// the caller bounds the total with a run budget.

// shrink reduces sc while fails(candidate) stays true. fails must be
// the full check (execute + model + crosscheck); budget caps how many
// times it may be called.
func shrink(sc Script, fails func(Script) bool, budget int) Script {
	cur := sc
	spent := 0
	try := func(cand Script) bool {
		if spent >= budget {
			return false
		}
		spent++
		if fails(cand) {
			cur = cand
			return true
		}
		return false
	}

	// ddmin over ops: remove progressively smaller chunks.
	n := 2
	for len(cur.Ops) > 1 && spent < budget {
		chunk := (len(cur.Ops) + n - 1) / n
		reduced := false
		for start := 0; start < len(cur.Ops) && spent < budget; start += chunk {
			end := start + chunk
			if end > len(cur.Ops) {
				end = len(cur.Ops)
			}
			cand := cur
			cand.Ops = append(append([]ScriptOp(nil), cur.Ops[:start]...), cur.Ops[end:]...)
			if len(cand.Ops) == 0 {
				continue
			}
			if try(cand) {
				reduced = true
				break
			}
		}
		switch {
		case reduced:
			if n > 2 {
				n--
			}
		case chunk == 1:
			// Already at single-op granularity and nothing was removable.
			n = len(cur.Ops) + 1
		default:
			n *= 2
		}
		if n > len(cur.Ops) && chunk == 1 {
			break
		}
		if n > len(cur.Ops) {
			n = len(cur.Ops)
		}
	}

	// Burst flattening: a pipelined window that still fails as plain
	// blocking ops makes a much more readable repro.
	for i := 0; i < len(cur.Ops) && spent < budget; i++ {
		op := cur.Ops[i]
		if op.Code != OpBurst {
			continue
		}
		cand := cur
		flat := make([]ScriptOp, 0, len(cur.Ops)+len(op.Sub)-1)
		flat = append(flat, cur.Ops[:i]...)
		for _, sub := range op.Sub {
			sub.Client = op.Client
			flat = append(flat, sub)
		}
		flat = append(flat, cur.Ops[i+1:]...)
		cand.Ops = flat
		try(cand)
	}

	// Client collapsing: single-actor repros read best.
	if cur.Clients > 1 && spent < budget {
		cand := cur
		cand.Clients = 1
		cand.Ops = append([]ScriptOp(nil), cur.Ops...)
		for i := range cand.Ops {
			cand.Ops[i].Client = 0
		}
		try(cand)
	}
	return cur
}
