package memcheck

import (
	"fmt"
	"sort"

	"repro/internal/memcached"
)

// Cross-checking compares what the CLIENTS observed with what the
// ENGINE recorded, per key. The reference model alone cannot see a
// frontend or transport bug — a parser that drops flags, a codec that
// misroutes a reply — because the engine's own records are consistent
// with whatever (wrong) request reached it. Observations close that
// gap.
//
// On a clean fabric every client operation executes exactly once, so
// the per-key multisets of canonical elements must be EQUAL. On a lossy
// fabric a retried request may execute server-side more than once (the
// reply was lost, not the request), so the check weakens to
// containment: everything a client observed must appear in the server
// history.

// canonRecord renders one operation — an engine record or a client
// observation, which share its shape — as a canonical comparison
// element. Fields that differ legitimately between the two sides
// (timestamps, CAS ids on reads, item flags on reads — mget replies
// don't carry them) are excluded; fields a frontend could corrupt (store
// flags, exptime, values, results) are kept.
func canonRecord(r *memcached.OpRecord) (string, bool) {
	switch r.Kind {
	case memcached.RecGet:
		if r.Hit {
			return fmt.Sprintf("get|hit|%q", r.Value), true
		}
		return "get|miss", true
	case memcached.RecSet, memcached.RecAdd, memcached.RecReplace, memcached.RecCas:
		el := fmt.Sprintf("%s|%s|f%d|e%d", r.Kind, r.Res, r.Flags, r.Exptime)
		if r.Kind == memcached.RecCas {
			el += fmt.Sprintf("|c%d", r.CasReq)
		}
		if r.Res == memcached.Stored {
			el += fmt.Sprintf("|%q", r.Value)
		}
		return el, true
	case memcached.RecAppend, memcached.RecPrepend:
		// The client sends the argument; the engine records both the
		// argument and the composed result. Compare the argument.
		return fmt.Sprintf("%s|%s|%q", r.Kind, r.Res, r.Arg), true
	case memcached.RecDelete:
		return fmt.Sprintf("del|hit=%v", r.Hit), true
	case memcached.RecIncr, memcached.RecDecr:
		return fmt.Sprintf("%s|d%d|hit=%v|bad=%v|oom=%v|%d", r.Kind, r.Delta, r.Hit, r.Bad, r.OOM, r.NewNum), true
	default:
		// Internal transitions (evict/expire/flush) and touch have no
		// client-side counterpart in the harness.
		return "", false
	}
}

// itemState renders one (value, cas, flags) item version for the
// one-sided containment check.
func itemState(value []byte, cas uint64, flags uint32) string {
	return fmt.Sprintf("%q|c%d|f%d", value, cas, flags)
}

// recordStates extracts every item version the history put live, per
// key: successful stores (set/add/replace/cas/append/prepend), incr and
// decr results, and get hits (which re-attest the current version).
func recordStates(recs []*memcached.OpRecord) map[string]map[string]bool {
	states := make(map[string]map[string]bool)
	add := func(key string, value []byte, cas uint64, flags uint32) {
		m := states[key]
		if m == nil {
			m = make(map[string]bool)
			states[key] = m
		}
		m[itemState(value, cas, flags)] = true
	}
	for _, r := range recs {
		switch r.Kind {
		case memcached.RecSet, memcached.RecAdd, memcached.RecReplace,
			memcached.RecCas, memcached.RecAppend, memcached.RecPrepend:
			if r.Res == memcached.Stored {
				add(r.Key, r.Value, r.NewCAS, r.Flags)
			}
		case memcached.RecIncr, memcached.RecDecr:
			if r.Hit && !r.Bad && !r.OOM {
				add(r.Key, r.Value, r.NewCAS, r.Flags)
			}
		case memcached.RecGet:
			if r.Hit {
				add(r.Key, r.Value, r.OldCAS, r.Flags)
			}
		}
	}
	return states
}

// checkOneSided validates every one-sided GET hit by containment: the
// (value, cas, flags) triple the client's RDMA read assembled must be an
// item version the server history actually produced. Equality against a
// specific record is impossible — the whole point of the path is that no
// server code runs — and the seqlock's guarantee is exactly this: the
// pairing was live at some instant. A stale-pairing bug (value from one
// version, cas from another, as mut_onesided_stale plants) produces a
// triple that never existed and fails here.
func checkOneSided(recs []*memcached.OpRecord, obs []observation) *Violation {
	var states map[string]map[string]bool
	for _, o := range obs {
		if !o.oneSided || !o.rec.Hit {
			continue
		}
		if states == nil {
			states = recordStates(recs)
		}
		r := &o.rec
		el := itemState(r.Value, r.OldCAS, r.Flags)
		if !states[r.Key][el] {
			return &Violation{msg: fmt.Sprintf(
				"onesided %q: client read %s, an item version the server never produced", r.Key, el)}
		}
	}
	return nil
}

// crossCheck compares observations against the recorded history.
func crossCheck(recs []*memcached.OpRecord, obs []observation, lossy bool) *Violation {
	if v := checkOneSided(recs, obs); v != nil {
		return v
	}
	server := make(map[string][]string) // key → canonical elements
	for _, r := range recs {
		if el, ok := canonRecord(r); ok {
			server[r.Key] = append(server[r.Key], el)
		}
	}
	client := make(map[string][]string)
	for _, o := range obs {
		// A failed call may or may not have reached the server, and a
		// one-sided hit never ran there (checkOneSided validates it).
		if o.err != nil || o.oneSided {
			continue
		}
		if el, ok := canonRecord(&o.rec); ok {
			client[o.rec.Key] = append(client[o.rec.Key], el)
		}
	}

	if lossy {
		// Containment: every client-visible outcome must be explained by
		// at least one server-side execution.
		for _, key := range sortKeys(client) {
			have := make(map[string]int)
			for _, el := range server[key] {
				have[el]++
			}
			for _, el := range client[key] {
				if have[el] == 0 {
					return &Violation{msg: fmt.Sprintf(
						"crosscheck %q: client observed %s, server never recorded it", key, el)}
				}
			}
		}
		return nil
	}

	keys := make(map[string]struct{})
	for k := range server {
		keys[k] = struct{}{}
	}
	for k := range client {
		keys[k] = struct{}{}
	}
	for _, key := range sortKeys(keys) {
		s := append([]string(nil), server[key]...)
		c := append([]string(nil), client[key]...)
		sort.Strings(s)
		sort.Strings(c)
		if d := firstDiff(s, c); d != "" {
			return &Violation{msg: fmt.Sprintf("crosscheck %q: %s", key, d)}
		}
	}
	return nil
}

func firstDiff(server, client []string) string {
	i, j := 0, 0
	for i < len(server) && j < len(client) {
		switch {
		case server[i] == client[j]:
			i++
			j++
		case server[i] < client[j]:
			return fmt.Sprintf("server recorded %s with no matching client observation", server[i])
		default:
			return fmt.Sprintf("client observed %s with no matching server record", client[j])
		}
	}
	if i < len(server) {
		return fmt.Sprintf("server recorded %s with no matching client observation", server[i])
	}
	if j < len(client) {
		return fmt.Sprintf("client observed %s with no matching server record", client[j])
	}
	return ""
}
