package memcheck

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/mcclient"
	"repro/internal/memcached"
	"repro/internal/simnet"
)

// Config selects what one memcheck run exercises.
type Config struct {
	// Transport is the wire the clients use (cluster.UCRIB, cluster.IPoIB, …).
	Transport cluster.Transport
	// Seed drives both workload generation and (with Faults) the drop
	// pattern. The same Config is bit-for-bit replayable.
	Seed uint64
	// Clients / Ops size the generated workload (defaults 3 / 400; the
	// fleet grammar's 3 / 300).
	Clients int
	Ops     int
	// Faults turns on a lossy fabric (1% drop) plus client retries.
	Faults bool
	// Pressure shrinks the cache so LRU eviction runs constantly.
	Pressure bool
	// noBursts generates a purely blocking workload with the TTL mix
	// (see genConfig.noBursts).
	NoBursts bool
	// mode names the row of the mode table (Modes) whose datapath the
	// deployment arms; "" is the default row.
	mode string
	// Servers is the fleet mode's initial member count (default 4).
	Servers int
}

// observation is one client call as the checker made it, in the
// engine's record shape: rec's inputs are the script op's, its outcome is
// what the call returned. err is set when the call left no outcome to
// compare (a transport failure: the op may or may not have reached the
// server). oneSided marks a get hit the client's RDMA reads served,
// which has no engine record to pair with.
type observation struct {
	rec      memcached.OpRecord
	err      error
	oneSided bool
}

// execute runs a script against a fresh single-server deployment,
// collects the server's transition history (sorted by Seq — the
// linearization order) and the clients' observations, and checks them:
// harness failure, model divergence, or cross-check mismatch, in that
// order.
func (m *Mode) execute(sc Script, cfg Config) *Result {
	res := &Result{config: cfg, script: sc}
	opts := cluster.Options{
		Servers:       1,
		ServerWorkers: 2,
		Stripes:       4,
		MemoryLimit:   64 << 20,
	}
	if cfg.Pressure {
		// Two slab pages: one ends up with the small classes, one with
		// the generator's 33–63 KB pressure values (≈16 chunks), so LRU
		// eviction starts within a couple dozen stores.
		opts.MemoryLimit = 2 << 20
	}
	opts, b := m.arm(cfg, opts)
	d := cluster.New(cluster.ClusterB(), opts)
	defer d.Close()

	x := &executor{cfg: cfg, store: d.Server.Store(), deployment: d}
	for i := 0; i < sc.clients; i++ {
		cl, err := d.NewClient(cfg.Transport, b)
		if err != nil {
			res.Violation = harnessFailure(fmt.Errorf("memcheck: client %d: %w", i, err))
			return res
		}
		defer cl.Close()
		x.clients = append(x.clients, cl)
	}

	// Arm the recorder only now: connection setup is not part of the
	// checked history. The callback runs inside a server worker's step,
	// under the deployment's owner like every store op, so the sink
	// needs no lock of its own. Seq restores the total order afterwards.
	x.store.SetRecorder(func(r *memcached.OpRecord) {
		x.records = append(x.records, r)
	})

	for i, op := range sc.ops {
		if err := x.step(op); err != nil {
			res.Violation = harnessFailure(fmt.Errorf("memcheck: op %d (%s): %w", i, formatOp(op, true), err))
			return res
		}
	}
	x.epilogue(sc)

	// Snapshot the client-side path counters before teardown, then
	// close: a lossy retry can leave a duplicated request queued at the
	// server. Close stops the worker actors (what is still queued is
	// never served), so afterwards nothing appends to the history.
	res.Counters = Counters{Runs: 1}
	if cfg.Transport == cluster.UCRIB {
		res.ucrRuns = 1
	}
	for _, cl := range x.clients {
		if ut, ok := cl.MC.Transport(0).(*mcclient.UCRTransport); ok {
			res.paths.Add(ut.PathStats())
		}
		cl.Close()
	}
	x.clients = nil
	d.Close()
	x.store.SetRecorder(nil)

	res.history, res.obs = x.records, x.obs
	sortRecords(res.history)
	res.srqDemux, res.batchedDrains, res.writeReplies =
		d.Server.UCRSRQDemux(), d.Server.UCRBatchedDrains(), d.Server.UCRWriteReplies()
	res.Detail = fmt.Sprintf("records=%d", len(res.history))

	if res.Violation = checkModel(res.history); res.Violation == nil {
		res.Violation = crossCheck(res.history, res.obs, cfg.Faults)
	}
	return res
}

type executor struct {
	cfg        Config
	deployment *cluster.Deployment
	store      *memcached.Store
	clients    []*cluster.Client

	records []*memcached.OpRecord
	obs     []observation
}

func sortRecords(recs []*memcached.OpRecord) {
	// Seq is a dense total order; plain comparison sort keeps this O(n log n).
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
}

// tolerate passes err on unless it is an outcome the configuration can
// produce on a healthy run.
func (x *executor) tolerate(err error) error {
	switch {
	case err == nil,
		errors.Is(err, mcclient.ErrCacheMiss),
		errors.Is(err, mcclient.ErrNotStored),
		errors.Is(err, mcclient.ErrCASExists),
		errors.Is(err, mcclient.ErrBadValue),
		errors.Is(err, mcclient.ErrServerError),
		// Only a lossy fabric may lose operations.
		x.cfg.Faults && errors.Is(err, mcclient.ErrServerDown):
		return nil
	}
	return err
}

func (x *executor) step(op scriptOp) error {
	cl := x.clients[op.client%len(x.clients)]
	mc := cl.MC
	var c call
	switch op.code {
	case opSet:
		c.err = mc.Set(op.key, op.value, op.flags, op.exptime)
	case opAdd:
		c.err = mc.Add(op.key, op.value, op.flags, op.exptime)
	case opReplace:
		c.err = mc.Replace(op.key, op.value, op.flags, op.exptime)
	case opAppend:
		c.err = mc.Append(op.key, op.value)
	case opPrepend:
		c.err = mc.Prepend(op.key, op.value)
	case opCas:
		return x.stepCas(cl, op)
	case opGet:
		c = get(cl, op.key)
	case opMGet:
		// One observation per requested key, hit or miss, so the
		// cross-check sees mget misses too.
		vals, err := mc.GetMulti(op.keys)
		for _, k := range op.keys {
			v, hit := vals[k]
			x.observe(scriptOp{code: opGet, key: k}, call{value: v, err: missed(hit, err)})
		}
		return x.tolerate(err)
	case opDelete:
		c.err = mc.Delete(op.key)
	case opIncr:
		c.num, c.err = mc.Incr(op.key, op.delta)
	case opDecr:
		c.num, c.err = mc.Decr(op.key, op.delta)
	case opAdvance:
		cl.Clock.Advance(op.advance)
		return nil
	case opFlush:
		x.stepFlush()
		return nil
	case opBurst:
		return x.stepBurst(cl, op)
	default:
		return fmt.Errorf("unknown op code %d", op.code)
	}
	x.observe(op, c)
	return x.tolerate(c.err)
}

// call is what one client call returned, in the blocking API's shape: a
// miss, a store's result and a counter's bad or out-of-memory answer
// come back as err.
type call struct {
	value    []byte // get hit
	flags    uint32 // get hit
	cas      uint64 // get hit: the item's id; cas: the id presented
	num      uint64 // incr/decr
	err      error
	oneSided bool // a get the client's one-sided path served
}

// recKinds names the engine record each client call kind produces.
var recKinds = map[opCode]memcached.OpKind{
	opSet: memcached.RecSet, opAdd: memcached.RecAdd, opReplace: memcached.RecReplace,
	opAppend: memcached.RecAppend, opPrepend: memcached.RecPrepend, opCas: memcached.RecCas,
	opGet: memcached.RecGet, opDelete: memcached.RecDelete,
	opIncr: memcached.RecIncr, opDecr: memcached.RecDecr,
}

// observe records one call — a blocking step's or a burst future's — as
// the engine would: the inputs from the script op that issued it, the
// outcome from what the call returned.
func (x *executor) observe(op scriptOp, c call) {
	r := memcached.OpRecord{Kind: recKinds[op.code], Key: op.key}
	err := c.err
	switch r.Kind {
	case memcached.RecGet, memcached.RecDelete:
		if r.Hit = err == nil; r.Hit && r.Kind == memcached.RecGet {
			r.Value, r.Flags, r.OldCAS = bytes.Clone(c.value), c.flags, c.cas
		}
	case memcached.RecIncr, memcached.RecDecr:
		r.Delta, r.NewNum = op.delta, c.num
		r.Hit = !errors.Is(err, mcclient.ErrCacheMiss)
		r.Bad, r.OOM = errors.Is(err, mcclient.ErrBadValue), errors.Is(err, mcclient.ErrServerError)
	default: // the six storage verbs
		var ok bool
		if r.Res, ok = mcclient.StoreResultOf(err); ok {
			err = nil
		}
		r.Flags, r.Exptime, r.CasReq = op.flags, op.exptime, c.cas
		if r.Kind == memcached.RecAppend || r.Kind == memcached.RecPrepend {
			r.Arg = op.value
		} else {
			r.Value = op.value
		}
	}
	if errors.Is(err, mcclient.ErrCacheMiss) || errors.Is(err, mcclient.ErrBadValue) || errors.Is(err, mcclient.ErrServerError) {
		err = nil // an outcome, recorded above
	}
	x.obs = append(x.obs, observation{rec: r, err: err, oneSided: c.oneSided})
}

// missed puts a future's miss in the blocking API's shape.
func missed(hit bool, err error) error {
	if err == nil && !hit {
		return mcclient.ErrCacheMiss
	}
	return err
}

// get is a blocking Get, with whether the one-sided path served it: the
// rise of the transport's one-sided hits across the call (a memcheck
// client has exactly one transport).
func get(cl *cluster.Client, key string) call {
	hits := func() uint64 {
		if ut, ok := cl.MC.Transport(0).(*mcclient.UCRTransport); ok {
			return ut.PathStats().By[mcclient.PathOneSided].Hits
		}
		return 0
	}
	before := hits()
	v, flags, cas, err := cl.MC.Get(key)
	return call{value: v, flags: flags, cas: cas, err: err, oneSided: hits() > before}
}

// stepCas learns the key's current CAS id with a real get, then issues
// the cas — with the fresh id, or a deliberately wrong one.
func (x *executor) stepCas(cl *cluster.Client, op scriptOp) error {
	g := get(cl, op.key)
	x.observe(scriptOp{code: opGet, key: op.key}, g)
	if err := x.tolerate(g.err); err != nil {
		return err
	}
	id := g.cas
	if id == 0 { // a miss
		id = 99991 // any id: cas on an absent key is NOT_FOUND regardless
	} else if op.stale {
		id += 7777
	}
	err := cl.MC.Cas(op.key, op.value, op.flags, op.exptime, id)
	x.observe(op, call{cas: id, err: err})
	return x.tolerate(err)
}

// stepFlush calls flush_all with a horizon strictly above every clock
// in the system, then moves every client past it, so the flush means
// the same thing however far pipelined bursts have run the worker
// clocks ahead of the clients': everything stored so far is below the
// horizon, everything after is above it.
func (x *executor) stepFlush() {
	maxT := simnet.Time(0)
	for _, cl := range x.clients {
		if t := cl.Clock.Now(); t > maxT {
			maxT = t
		}
	}
	for _, wc := range x.deployment.Server.WorkerClocks() {
		if wc > maxT {
			maxT = wc
		}
	}
	x.store.FlushAll(maxT)
	for _, cl := range x.clients {
		cl.Clock.AdvanceTo(maxT + simnet.Second)
	}
}

// stepBurst drives one pipelined window through the client's transport
// and observes each settled future as it would a blocking call.
func (x *executor) stepBurst(cl *cluster.Client, op scriptOp) error {
	pr, ok := cl.MC.Transport(0).(mcclient.Pipeliner)
	if !ok {
		return fmt.Errorf("transport %s cannot pipeline", x.cfg.Transport)
	}
	w := op.window
	if w < 1 {
		w = 1
	}
	pl := pr.Pipeline(w)
	clk := cl.Clock

	type pending struct {
		sub scriptOp
		get *mcclient.GetFuture
		set *mcclient.SetFuture
		del *mcclient.BoolFuture
	}
	pend := make([]pending, 0, len(op.sub))
	for _, sub := range op.sub {
		p := pending{sub: sub}
		switch sub.code {
		case opSet:
			p.set = pl.StartSet(clk, sub.key, sub.flags, sub.exptime, sub.value)
		case opGet:
			p.get = pl.StartGet(clk, sub.key)
		case opDelete:
			p.del = pl.StartDelete(clk, sub.key)
		default:
			return fmt.Errorf("burst sub-op %s not supported", opNames[sub.code])
		}
		pend = append(pend, p)
	}
	if err := x.tolerate(pl.Wait(clk)); err != nil {
		return err
	}
	for _, p := range pend {
		var c call
		switch {
		case p.set != nil:
			res, err := p.set.Wait(clk)
			if c.err = err; err == nil {
				c.err = mcclient.StoreErr(memcached.StoreOpSet, res)
			}
		case p.get != nil:
			v, flags, cas, hit, err := p.get.Wait(clk)
			c = call{value: v, flags: flags, cas: cas, err: missed(hit, err)}
		case p.del != nil:
			hit, err := p.del.Wait(clk)
			c.err = missed(hit, err)
		}
		x.observe(p.sub, c)
		if err := x.tolerate(c.err); err != nil {
			return err
		}
	}
	return nil
}

// epilogue reads back every key the script could have touched, from one
// client, blocking — pinning down the final state of the store so
// latent divergence (e.g. a delete that did not delete) always shows up
// in the history.
func (x *executor) epilogue(sc Script) {
	keys := scriptKeys(sc)
	for _, k := range keys {
		_ = x.step(scriptOp{code: opGet, key: k})
	}
	if len(keys) > 0 {
		_ = x.step(scriptOp{code: opMGet, keys: keys})
	}
}

// scriptKeys is the sorted union of keys a script touches.
func scriptKeys(sc Script) []string {
	set := make(map[string]struct{})
	var walk func(ops []scriptOp)
	walk = func(ops []scriptOp) {
		for _, op := range ops {
			if op.key != "" {
				set[op.key] = struct{}{}
			}
			for _, k := range op.keys {
				set[k] = struct{}{}
			}
			walk(op.sub)
		}
	}
	walk(sc.ops)
	return sortKeys(set)
}
