package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/mcclient"
	"repro/internal/simnet"
)

// stepper is one simulated closed-loop client, advanced one op at a
// time by the driver goroutine.
type stepper interface {
	step(isSet bool, k int)
	// drain settles anything still in flight (pipelined clients).
	drain()
	clock() *simnet.VClock
	// trace switches the client to its span-recording path.
	trace(rec *recorder) error
}

// blockingStepper calls mcclient.Client.Get/Set and waits.
type blockingStepper struct {
	in  *inputs
	t   *tally
	clk *simnet.VClock
	mc  *mcclient.Client
	rec *recorder
	cur uint32 // open Client span, read by tracedTransport
}

func (s *blockingStepper) clock() *simnet.VClock { return s.clk }
func (s *blockingStepper) drain()                {}

func (s *blockingStepper) trace(rec *recorder) error {
	tmc, err := mcclient.New(s.clk, mcclient.DefaultBehaviors(), []mcclient.Transport{
		&tracedTransport{Transport: s.mc.Transport(0), rec: rec, cur: &s.cur},
	})
	if err != nil {
		return err
	}
	s.mc, s.rec = tmc, rec
	return nil
}

func (s *blockingStepper) step(isSet bool, k int) {
	key := s.in.keys[k]
	var op uint32
	if s.rec != nil {
		opKind, clKind := spanOpGet, spanClientGet
		if isSet {
			opKind, clKind = spanOpSet, spanClientSet
		}
		op = s.rec.begin(opKind, 0, s.clk)
		s.cur = s.rec.begin(clKind, op, s.clk)
	}
	t0 := s.clk.Now()
	if isSet {
		err := s.mc.Set(key, s.in.vals[k], 0, 0)
		s.t.setLat.add(int64(s.clk.Now() - t0))
		if s.rec != nil {
			s.rec.end(s.cur, s.clk)
		}
		s.t.checkSet(splitStoreErr(err))
	} else {
		v, _, _, err := s.mc.Get(key)
		s.t.getLat.add(int64(s.clk.Now() - t0))
		if s.rec != nil {
			s.rec.end(s.cur, s.clk)
		}
		hit := !errors.Is(err, mcclient.ErrCacheMiss)
		if !hit {
			err = nil
		}
		s.t.checkGet(v, s.in.vals[k], hit, err)
	}
	if s.rec != nil {
		s.rec.end(op, s.clk)
	}
}

// splitStoreErr separates "the server answered something other than
// Stored" from transport failures.
func splitStoreErr(err error) (stored bool, terr error) {
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, mcclient.ErrNotStored), errors.Is(err, mcclient.ErrCASExists),
		errors.Is(err, mcclient.ErrServerError):
		return false, nil
	}
	return false, err
}

// pipeStepper keeps a window of depth GETs in flight on one connection:
// before each issue past the window it waits for the oldest reply, so
// the window slides instead of filling and emptying in bursts. Values
// land in lent buffers, one per window slot.
type pipeStepper struct {
	in    *inputs
	t     *tally
	clk   *simnet.VClock
	pipe  mcclient.Pipeline
	rec   *recorder
	depth int

	bufs     [][]byte
	futs     []*mcclient.GetFuture
	start    []simnet.Time
	key      []int
	opSpan   []uint32
	head     int
	inflight int
}

func newPipeStepper(in *inputs, t *tally, c *cluster.Client, depth int) (*pipeStepper, error) {
	pl, ok := c.MC.Transport(0).(mcclient.Pipeliner)
	if !ok {
		return nil, fmt.Errorf("transport %s is not pipelinable", c.Transport)
	}
	s := &pipeStepper{
		in: in, t: t, clk: c.Clock, pipe: pl.Pipeline(depth), depth: depth,
		bufs: make([][]byte, depth), futs: make([]*mcclient.GetFuture, depth),
		start: make([]simnet.Time, depth), key: make([]int, depth), opSpan: make([]uint32, depth),
	}
	for i := range s.bufs {
		s.bufs[i] = make([]byte, in.w.ValueSize)
	}
	return s, nil
}

func (s *pipeStepper) clock() *simnet.VClock { return s.clk }

func (s *pipeStepper) trace(rec *recorder) error { s.rec = rec; return nil }

func (s *pipeStepper) step(isSet bool, k int) {
	if s.inflight == s.depth {
		s.complete()
	}
	slot := (s.head + s.inflight) % s.depth
	s.start[slot], s.key[slot] = s.clk.Now(), k
	if s.rec != nil {
		s.opSpan[slot] = s.rec.begin(spanOpGet, 0, s.clk)
		id := s.rec.begin(spanPipeStart, s.opSpan[slot], s.clk)
		s.futs[slot] = s.pipe.StartGetInto(s.clk, s.in.keys[k], s.bufs[slot])
		s.rec.end(id, s.clk)
	} else {
		s.futs[slot] = s.pipe.StartGetInto(s.clk, s.in.keys[k], s.bufs[slot])
	}
	s.inflight++
}

// complete waits for the oldest request and checks its reply.
func (s *pipeStepper) complete() {
	slot := s.head
	var id uint32
	if s.rec != nil {
		id = s.rec.begin(spanPipeWait, s.opSpan[slot], s.clk)
	}
	v, _, _, hit, err := s.futs[slot].Wait(s.clk)
	s.t.getLat.add(int64(s.clk.Now() - s.start[slot]))
	if s.rec != nil {
		s.rec.end(id, s.clk)
	}
	s.t.checkGet(v, s.in.vals[s.key[slot]], hit, err)
	if s.rec != nil {
		s.rec.end(s.opSpan[slot], s.clk)
	}
	s.futs[slot] = nil
	s.head = (s.head + 1) % s.depth
	s.inflight--
}

func (s *pipeStepper) drain() {
	for s.inflight > 0 {
		s.complete()
	}
}

// fleetStepper routes through cluster.FleetClient (ring lookup, lazy
// per-owner connection, write-through to R owners).
type fleetStepper struct {
	in  *inputs
	t   *tally
	fc  *cluster.FleetClient
	rec *recorder
}

func (s *fleetStepper) clock() *simnet.VClock     { return s.fc.Clock }
func (s *fleetStepper) drain()                    {}
func (s *fleetStepper) trace(rec *recorder) error { s.rec = rec; return nil }

func (s *fleetStepper) step(isSet bool, k int) {
	key, clk := s.in.keys[k], s.fc.Clock
	var op, child uint32
	if s.rec != nil {
		opKind, flKind := spanOpGet, spanFleetGet
		if isSet {
			opKind, flKind = spanOpSet, spanFleetSet
		}
		op = s.rec.begin(opKind, 0, clk)
		child = s.rec.begin(flKind, op, clk)
	}
	t0 := clk.Now()
	if isSet {
		err := s.fc.Set(key, s.in.vals[k], 0, 0)
		s.t.setLat.add(int64(clk.Now() - t0))
		if s.rec != nil {
			s.rec.end(child, clk)
		}
		s.t.checkSet(err == nil, err)
	} else {
		v, _, err := s.fc.Get(key)
		s.t.getLat.add(int64(clk.Now() - t0))
		if s.rec != nil {
			s.rec.end(child, clk)
		}
		hit := !errors.Is(err, mcclient.ErrCacheMiss)
		if !hit {
			err = nil
		}
		s.t.checkGet(v, s.in.vals[k], hit, err)
	}
	if s.rec != nil {
		s.rec.end(op, clk)
	}
}

// rig is one open deployment with its clients populated, warmed up and
// ready to be stepped.
type rig struct {
	w  *workload
	in *inputs

	d        *cluster.Deployment
	fleet    *cluster.Fleet
	clients  []*cluster.Client
	fclients []*cluster.FleetClient
	steppers []stepper
	scheds   []*schedule
	tally    tally
	closed   bool
}

// setup builds the deployment for w (cluster profile B, default
// options), dials every client, populates the keyspace and issues the
// warm-up ops. Any populate or dial failure is an error.
func setup(w *workload, in *inputs) (*rig, error) {
	r := &rig{w: w, in: in}
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()
	profile := cluster.ClusterB()
	if w.Kind == kindFleet {
		f, err := cluster.NewFleet(profile, cluster.FleetOptions{
			Transport: w.Transport, Servers: w.Servers, Replicas: 2,
			Behaviors: mcclient.DefaultBehaviors(), Seed: in.seed,
		})
		if err != nil {
			return nil, fmt.Errorf("new fleet: %w", err)
		}
		r.fleet, r.d = f, f.D
		for i := 0; i < w.Clients; i++ {
			fc, err := f.NewClient()
			if err != nil {
				return nil, fmt.Errorf("fleet client %d: %w", i, err)
			}
			r.fclients = append(r.fclients, fc)
			r.steppers = append(r.steppers, &fleetStepper{in: in, t: &r.tally, fc: fc})
		}
		for k, key := range in.keys {
			if err := r.fclients[0].Set(key, in.vals[k], 0, 0); err != nil {
				return nil, fmt.Errorf("populate %q: %w", key, err)
			}
		}
	} else {
		r.d = cluster.New(profile, cluster.Options{})
		for i := 0; i < w.Clients; i++ {
			c, err := r.d.NewClient(w.Transport, mcclient.DefaultBehaviors())
			if err != nil {
				return nil, fmt.Errorf("dial client %d: %w", i, err)
			}
			r.clients = append(r.clients, c)
			if w.Kind == kindPipelined {
				ps, err := newPipeStepper(in, &r.tally, c, w.Depth)
				if err != nil {
					return nil, err
				}
				r.steppers = append(r.steppers, ps)
			} else {
				r.steppers = append(r.steppers, &blockingStepper{in: in, t: &r.tally, clk: c.Clock, mc: c.MC})
			}
		}
		for k, key := range in.keys {
			if err := r.clients[0].MC.Set(key, in.vals[k], 0, 0); err != nil {
				return nil, fmt.Errorf("populate %q: %w", key, err)
			}
		}
	}
	r.scheds = in.schedules()
	r.tally = newTally()
	r.drive(warmupOps * w.Clients)
	if r.tally.failed() > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d ops failed", r.tally.failed(), r.tally.ops())
	}
	ok = true
	return r, nil
}

// close shuts the deployment down; a second call does nothing.
func (r *rig) close() {
	if r.closed {
		return
	}
	r.closed = true
	for _, c := range r.clients {
		c.Close()
	}
	for _, fc := range r.fclients {
		fc.Close()
	}
	switch {
	case r.fleet != nil:
		r.fleet.Close()
	case r.d != nil:
		r.d.Close()
	}
}

// drive issues ops round-robin over the clients (ops rounded down to a
// whole number of laps) and settles them.
func (r *rig) drive(ops int) int {
	laps := ops / len(r.steppers)
	for n := 0; n < laps; n++ {
		for i, s := range r.steppers {
			isSet, k := r.scheds[i].next()
			s.step(isSet, k)
		}
	}
	for _, s := range r.steppers {
		s.drain()
	}
	return laps * len(r.steppers)
}

// syncClocks moves every client to the latest client clock, so a
// phase's makespan starts from one instant.
func (r *rig) syncClocks() simnet.Time {
	var now simnet.Time
	for _, s := range r.steppers {
		now = simnet.MaxTime(now, s.clock().Now())
	}
	for _, s := range r.steppers {
		s.clock().AdvanceTo(now)
	}
	return now
}

// phase is one measured stretch of a rig's life.
type phase struct {
	tally    tally
	ops      int
	wall     time.Duration   // host time
	passes   []float64       // hostRef passes timed around the stretch's parts, ns
	makespan simnet.Duration // max-over-clients virtual time
	mallocs  uint64
	bytes    uint64
}

func (p *phase) nsPerOp() float64 { return float64(p.wall) / float64(p.ops) }

// A measured stretch is cut into up to refParts parts of at least
// refPartOps ops when the host's speed is sampled alongside it: one
// hostRef pass before the first part and one after each, with the
// stretch's clock stopped. A pass pushes at most its own 2 MB out of
// the caches, which a part of ≈ 0.1 s refills in well under 0.1% of
// its time.
const (
	refParts   = 4
	refPartOps = 25_000
)

// measure times ops ops of the closed loop on both clocks. With a
// hostRef it also samples the host's speed between the stretch's parts.
func (r *rig) measure(ops int, ref *hostRef) *phase {
	p := &phase{}
	r.tally = newTally()
	start := r.syncClocks()
	parts := 1
	if ref != nil {
		parts = min(refParts, max(ops/refPartOps, 1))
		p.passes = append(make([]float64, 0, parts+1), ref.pass())
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < parts; i++ {
		t0 := time.Now()
		p.ops += r.drive(max(ops/parts, len(r.steppers)))
		p.wall += time.Since(t0)
		if ref != nil {
			p.passes = append(p.passes, ref.pass())
		}
	}
	runtime.ReadMemStats(&m1)
	for _, s := range r.steppers {
		p.makespan = simnet.MaxTime(p.makespan, s.clock().Now()-start)
	}
	p.mallocs, p.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	p.tally = r.tally
	return p
}

// liveHeapMB is the heap still reachable after a collection with the
// deployment open: pinned credit buffers, slab pages, reply arenas.
func (r *rig) liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(r)
	return float64(m.HeapAlloc) / 1e6
}
