package memcheck

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mcclient"
	"repro/internal/ring"
)

// Fleet mode checks the replicated, churn-capable tier: a cluster.Fleet
// under a scripted mix of set/get/del traffic and join/leave/crash
// events, against a reference model that tracks PER-SERVER ownership as
// the ring evolves. The invariant is the relaxed fleet contract: after
// churn quiesces, only the R current owners serve a key, and no stale
// pre-churn value is ever returned. Values MAY be lost when churn
// removes both owners of a key faster than read repair can respropagate
// them — the model predicts exactly that, so a loss the design allows
// is a pass and a loss (or resurrection) it does not is a violation.
//
// Clean runs are checked exactly: every Set/Get/Delete outcome,
// including the read-repair side effect on the primary, is predicted
// bit-for-bit from the model. Lossy runs drop 1% of packets, so any
// op can fail having half-applied; the model then tracks a CANDIDATE
// SET of values per server per key (union-only, "absent" is always a
// candidate) and checks containment: a returned or probed value that
// was never a candidate at any serving owner is a violation — that is
// precisely the "stale pre-churn value" class.

// fleetVal is one modeled cache entry (fleet values are small; string
// keys make them usable as map keys for the candidate sets).
type fleetVal struct {
	val   string
	flags uint32
}

// fleetModel is the reference: a ring replica kept in lockstep with the
// live fleet's, plus per-server contents — exact in clean mode,
// candidate sets in lossy mode.
type fleetModel struct {
	lossy    bool
	replicas int
	ring     *ring.Ring
	exact    map[string]map[string]fleetVal          // clean: server → key → value
	cand     map[string]map[string]map[fleetVal]bool // lossy: server → key → candidates
}

func newFleetModel(lossy bool, replicas int, members []string) *fleetModel {
	m := &fleetModel{
		lossy: lossy, replicas: replicas, ring: ring.New(0),
		exact: make(map[string]map[string]fleetVal),
		cand:  make(map[string]map[string]map[fleetVal]bool),
	}
	for _, name := range members {
		m.addServer(name)
	}
	return m
}

func (m *fleetModel) addServer(name string) {
	m.ring.AddServer(name)
	m.exact[name] = make(map[string]fleetVal)
	m.cand[name] = make(map[string]map[fleetVal]bool)
}

func (m *fleetModel) removeServer(name string) {
	m.ring.RemoveServer(name)
	delete(m.exact, name)
	delete(m.cand, name)
}

func (m *fleetModel) owners(key string) []string {
	return m.ring.Owners(key, m.replicas)
}

// addCand records v as a possible value of key at server (lossy mode).
func (m *fleetModel) addCand(server, key string, v fleetVal) {
	ks := m.cand[server]
	if ks == nil {
		return // departed server; nothing to track
	}
	set := ks[key]
	if set == nil {
		set = make(map[fleetVal]bool)
		ks[key] = set
	}
	set[v] = true
}

// isCand reports whether v is a possible value of key at server.
func (m *fleetModel) isCand(server, key string, v fleetVal) bool {
	if ks := m.cand[server]; ks != nil {
		return ks[key][v]
	}
	return false
}

// set applies a fleet write-through to the model.
func (m *fleetModel) set(key string, v fleetVal) {
	for _, o := range m.owners(key) {
		if m.lossy {
			m.addCand(o, key, v)
		} else if s := m.exact[o]; s != nil {
			s[key] = v
		}
	}
}

// get predicts a clean-mode fleet Get: the returned value (hit) or a
// miss, applying the read-repair side effect to the primary.
func (m *fleetModel) get(key string) (fleetVal, bool) {
	owners := m.owners(key)
	if len(owners) == 0 {
		return fleetVal{}, false
	}
	if v, ok := m.exact[owners[0]][key]; ok {
		return v, true
	}
	if len(owners) > 1 {
		if v, ok := m.exact[owners[1]][key]; ok {
			// Replica hit repairs the live primary (store-if-absent; the
			// key is absent there, so it lands).
			m.exact[owners[0]][key] = v
			return v, true
		}
	}
	return fleetVal{}, false
}

// del applies a fleet delete; reports whether any owner had the key.
func (m *fleetModel) del(key string) bool {
	found := false
	for _, o := range m.owners(key) {
		if m.lossy {
			// Union-only: a draining duplicate of an older store can
			// resurrect the value after the delete, so candidates stay.
			if len(m.cand[o][key]) > 0 {
				found = true
			}
			continue
		}
		if _, ok := m.exact[o][key]; ok {
			found = true
			delete(m.exact[o], key)
		}
	}
	return found
}

// executeFleet runs one fleet script against a fresh fleet and checks
// it step by step; the first divergence is recorded as the violation.
func (m *Mode) executeFleet(sc Script, cfg Config) *Result {
	res := &Result{Config: cfg, Script: sc, Counters: Counters{Runs: 1}}
	servers := cfg.Servers
	if servers <= 0 {
		servers = 4
	}
	opts, b := m.arm(cfg, cluster.Options{
		ServerWorkers: 2,
		Stripes:       4,
		MemoryLimit:   32 << 20,
	})
	f, err := cluster.NewFleet(cluster.ClusterB(), cluster.FleetOptions{
		Transport: cfg.Transport,
		Servers:   servers,
		Seed:      cfg.Seed,
		Behaviors: b,
		Opts:      opts,
	})
	if err != nil {
		res.Violation = harnessFailure(err)
		return res
	}
	defer f.Close()

	x := &fleetExecutor{cfg: cfg, f: f, model: newFleetModel(cfg.Faults, f.Replicas(), f.Members())}
	for i := 0; i < max(sc.Clients, 1); i++ {
		c, err := f.NewClient()
		if err != nil {
			res.Violation = harnessFailure(fmt.Errorf("client %d: %w", i, err))
			return res
		}
		defer c.Close()
		x.clients = append(x.clients, c)
	}

	res.Violation = x.play(sc)

	// Fold the vacuity counters: a sweep where the replication machinery
	// never ran validated nothing. The servers' are summed over every
	// member the run ever had, departed ones included.
	for _, c := range x.clients {
		res.Repairs += c.Stats.Repairs
	}
	joins, leaves, crashes := f.ChurnCounts()
	res.Churn, res.Moved = joins+leaves+crashes, x.moved
	for _, srv := range f.D.Servers {
		res.WriteReplies += srv.UCRWriteReplies()
	}
	res.Detail = fmt.Sprintf("churn=%d repairs=%d moved=%.4f", res.Churn, res.Repairs, res.Moved)
	return res
}

type fleetExecutor struct {
	cfg     Config
	f       *cluster.Fleet
	model   *fleetModel
	clients []*cluster.FleetClient
	moved   float64
}

// play steps the script and then the epilogue; the first divergence ends
// it.
func (x *fleetExecutor) play(sc Script) *Violation {
	for i, op := range sc.Ops {
		if v := x.step(op); v != nil {
			v.Msg = fmt.Sprintf("op %d (%s): %s", i, formatOp(op, true), v.Msg)
			return v
		}
	}
	return x.epilogue()
}

// down reports whether err is a server-down class outcome (tolerable
// only on lossy fabrics).
func fleetDown(err error) bool {
	return errors.Is(err, mcclient.ErrServerDown) || errors.Is(err, mcclient.ErrNoServers)
}

func (x *fleetExecutor) step(op ScriptOp) *Violation {
	c := x.clients[op.Client%len(x.clients)]
	switch op.Code {
	case OpSet:
		v := fleetVal{val: string(op.Value), flags: op.Flags}
		err := c.Set(op.Key, op.Value, op.Flags, 0)
		// Model first in lossy mode regardless of outcome: a failed
		// write-through may still have applied at any owner.
		x.model.set(op.Key, v)
		if err != nil && !(x.cfg.Faults && fleetDown(err)) {
			return &Violation{Msg: fmt.Sprintf("set returned %v", err)}
		}
		return nil
	case OpGet:
		val, flags, err := c.Get(op.Key)
		return x.checkGet(op.Key, val, flags, err)
	case OpDelete:
		found, err := c.Delete(op.Key)
		wantFound := x.model.del(op.Key)
		if err != nil {
			if x.cfg.Faults && fleetDown(err) {
				return nil
			}
			if errors.Is(err, mcclient.ErrCacheMiss) {
				return nil
			}
			return &Violation{Msg: fmt.Sprintf("delete returned %v", err)}
		}
		if !x.cfg.Faults && found != wantFound {
			return &Violation{Msg: fmt.Sprintf("delete found=%v, model says %v", found, wantFound)}
		}
		return nil
	case OpAdvance:
		c.Clock.Advance(op.Advance)
		return nil
	case OpJoin:
		pre := x.model.ring.Clone()
		name := x.f.Join()
		x.model.addServer(name)
		x.moved += x.model.ring.MovedFraction(pre)
		return x.checkRing()
	case OpLeave, OpCrash:
		// Keep at least 2 members so R=2 stays meaningful and a clean
		// run never routes into a dead fleet; the guard is evaluated on
		// the live size, so dropping earlier churn ops during shrinking
		// yields a script that is still runnable.
		members := x.f.Members()
		if len(members) <= 2 {
			return nil
		}
		name := members[int(op.Delta)%len(members)]
		pre := x.model.ring.Clone()
		if op.Code == OpLeave {
			x.f.Leave(name)
		} else {
			x.f.Crash(name)
		}
		x.model.removeServer(name)
		x.moved += x.model.ring.MovedFraction(pre)
		return x.checkRing()
	default:
		return &Violation{Msg: fmt.Sprintf("op %s not supported in fleet mode", opNames[op.Code])}
	}
}

// checkRing asserts the model ring stayed in lockstep with the fleet's
// — a divergence here is a ring bug, not a replication bug.
func (x *fleetExecutor) checkRing() *Violation {
	if !x.model.ring.Equal(x.f.RingSnapshot()) {
		return &Violation{Msg: "model ring diverged from fleet ring after churn"}
	}
	return nil
}

// checkGet validates one fleet Get outcome against the model and
// applies its side effects (read repair).
func (x *fleetExecutor) checkGet(key string, val []byte, flags uint32, err error) *Violation {
	if x.cfg.Faults {
		// Lossy: only value containment is checkable. A hit must return
		// a candidate value of one of the key's current owners; anything
		// else is a stale or foreign value.
		if err != nil {
			if fleetDown(err) || errors.Is(err, mcclient.ErrCacheMiss) {
				return nil
			}
			return &Violation{Msg: fmt.Sprintf("get returned %v", err)}
		}
		got := fleetVal{val: string(val), flags: flags}
		owners := x.model.owners(key)
		for _, o := range owners {
			if x.model.isCand(o, key, got) {
				// Possible read repair: the primary may now hold it.
				if len(owners) > 0 {
					x.model.addCand(owners[0], key, got)
				}
				return nil
			}
		}
		return &Violation{Msg: fmt.Sprintf("get %s returned %q flags=%d — not a candidate value at any current owner (stale?)", key, val, flags)}
	}
	want, hit := x.model.get(key)
	if hit {
		if err != nil {
			return &Violation{Msg: fmt.Sprintf("get %s returned %v, model has %q", key, err, want.val)}
		}
		if string(val) != want.val || flags != want.flags {
			return &Violation{Msg: fmt.Sprintf("get %s returned %q flags=%d, model has %q flags=%d", key, val, flags, want.val, want.flags)}
		}
		return nil
	}
	if !errors.Is(err, mcclient.ErrCacheMiss) {
		return &Violation{Msg: fmt.Sprintf("get %s: model predicts miss, got val=%q err=%v", key, val, err)}
	}
	return nil
}

// epilogue pins down the quiesced state: every fleet key is read once
// through the ring (repairing as designed), then every live server is
// probed directly for every key — only the R current owners may serve
// it, and what they serve must match the model. This is where a write
// routed by a stale ring or a skipped replica write surfaces even when
// the scripted traffic happened to dodge it.
func (x *fleetExecutor) epilogue() *Violation {
	c := x.clients[0]
	for _, k := range FleetKeys {
		val, flags, err := c.Get(k)
		if v := x.checkGet(k, val, flags, err); v != nil {
			v.Msg = "epilogue: " + v.Msg
			return v
		}
	}
	for _, server := range x.f.Members() {
		for _, k := range FleetKeys {
			val, hit, err := c.DirectGet(server, k)
			if err != nil {
				if x.cfg.Faults && fleetDown(err) {
					continue
				}
				return &Violation{Msg: fmt.Sprintf("epilogue: probe %s@%s: %v", k, server, err)}
			}
			if x.cfg.Faults {
				if hit && !x.anyCand(server, k, val) {
					return &Violation{Msg: fmt.Sprintf("epilogue: server %s holds %s=%q — never a candidate there (stale?)", server, k, val)}
				}
				continue
			}
			want, ok := x.model.exact[server][k]
			switch {
			case hit && !ok:
				return &Violation{Msg: fmt.Sprintf("epilogue: server %s serves %s=%q but is not an owner holding it in the model", server, k, val)}
			case !hit && ok:
				return &Violation{Msg: fmt.Sprintf("epilogue: server %s is missing %s (model holds %q)", server, k, want.val)}
			case hit && string(val) != want.val:
				return &Violation{Msg: fmt.Sprintf("epilogue: server %s serves %s=%q, model holds %q", server, k, val, want.val)}
			}
		}
	}
	return nil
}

// anyCand reports whether val (under any flags) is a candidate of key
// at server — probe flags are not compared in lossy mode.
func (x *fleetExecutor) anyCand(server, key string, val []byte) bool {
	for v := range x.model.cand[server][key] {
		if v.val == string(val) {
			return true
		}
	}
	return false
}
