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
	for len(cur.ops) > 1 && spent < budget {
		chunk := (len(cur.ops) + n - 1) / n
		reduced := false
		for start := 0; start < len(cur.ops) && spent < budget; start += chunk {
			end := start + chunk
			if end > len(cur.ops) {
				end = len(cur.ops)
			}
			cand := cur
			cand.ops = append(append([]scriptOp(nil), cur.ops[:start]...), cur.ops[end:]...)
			if len(cand.ops) == 0 {
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
			n = len(cur.ops) + 1
		default:
			n *= 2
		}
		if n > len(cur.ops) && chunk == 1 {
			break
		}
		if n > len(cur.ops) {
			n = len(cur.ops)
		}
	}

	// Burst flattening: a pipelined window that still fails as plain
	// blocking ops makes a much more readable repro.
	for i := 0; i < len(cur.ops) && spent < budget; i++ {
		op := cur.ops[i]
		if op.code != opBurst {
			continue
		}
		cand := cur
		flat := make([]scriptOp, 0, len(cur.ops)+len(op.sub)-1)
		flat = append(flat, cur.ops[:i]...)
		for _, sub := range op.sub {
			sub.client = op.client
			flat = append(flat, sub)
		}
		flat = append(flat, cur.ops[i+1:]...)
		cand.ops = flat
		try(cand)
	}

	// Client collapsing: single-actor repros read best.
	if cur.clients > 1 && spent < budget {
		cand := cur
		cand.clients = 1
		cand.ops = append([]scriptOp(nil), cur.ops...)
		for i := range cand.ops {
			cand.ops[i].client = 0
		}
		try(cand)
	}
	return cur
}
