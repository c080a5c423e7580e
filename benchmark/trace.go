package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/mcclient"
	"repro/internal/memcached"
	"repro/internal/simnet"
)

// spanKind names a layer boundary the benchmark wraps from outside.
type spanKind uint8

const (
	spanOpGet spanKind = iota
	spanOpSet
	spanClientGet
	spanClientSet
	spanTransportGet
	spanTransportSet
	spanPipeStart
	spanPipeWait
	spanFleetGet
	spanFleetSet
	numSpanKinds
)

var spanNames = [numSpanKinds]struct{ name, layer string }{
	spanOpGet:        {"op.get", "benchmark"},
	spanOpSet:        {"op.set", "benchmark"},
	spanClientGet:    {"mcclient.Client.Get", "mcclient"},
	spanClientSet:    {"mcclient.Client.Set", "mcclient"},
	spanTransportGet: {"mcclient.Transport.Get", "mcclient"},
	spanTransportSet: {"mcclient.Transport.Set", "mcclient"},
	spanPipeStart:    {"mcclient.Pipeline.StartGetInto", "mcclient"},
	spanPipeWait:     {"mcclient.GetFuture.Wait", "mcclient"},
	spanFleetGet:     {"cluster.FleetClient.Get", "cluster"},
	spanFleetSet:     {"cluster.FleetClient.Set", "cluster"},
}

// span is one timed interval on both clocks. Wall times are ns since
// the recorder started; model times are virtual ns on the issuing
// client's clock. Spans of one request share Op; Parent is the span
// that caused this one (0 for the op span itself; ids start at 1).
type span struct {
	ID, Parent, Op       uint32
	Kind                 spanKind
	WallStart, WallEnd   int64
	ModelStart, ModelEnd int64
}

// recorder keeps spans in memory; nothing is written until the run
// ends. It is driven by the one driver goroutine.
type recorder struct {
	t0    time.Time
	spans []span
	ops   uint32
}

func newRecorder(capOps int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 3*capOps)}
}

// begin opens a span under parent (0 starts a new op) and returns its
// id.
func (r *recorder) begin(k spanKind, parent uint32, clk *simnet.VClock) uint32 {
	id := uint32(len(r.spans) + 1)
	op := uint32(0)
	if parent == 0 {
		r.ops++
		op = r.ops
	} else {
		op = r.spans[parent-1].Op
	}
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Op: op, Kind: k,
		ModelStart: int64(clk.Now()), WallStart: int64(time.Since(r.t0)),
	})
	return id
}

func (r *recorder) end(id uint32, clk *simnet.VClock) {
	s := &r.spans[id-1]
	s.WallEnd = int64(time.Since(r.t0))
	s.ModelEnd = int64(clk.Now())
}

// tracedTransport wraps a connection so Client → Transport calls leave
// a span; the client above it is a second mcclient.New over the wrapper.
// cur is the enclosing Client span, set by the stepper before the call.
type tracedTransport struct {
	mcclient.Transport
	rec *recorder
	cur *uint32
}

func (t *tracedTransport) Get(clk *simnet.VClock, key string) ([]byte, uint32, uint64, bool, error) {
	id := t.rec.begin(spanTransportGet, *t.cur, clk)
	v, fl, cas, ok, err := t.Transport.Get(clk, key)
	t.rec.end(id, clk)
	return v, fl, cas, ok, err
}

func (t *tracedTransport) Set(clk *simnet.VClock, key string, flags uint32, exptime int64, value []byte) (memcached.StoreResult, error) {
	id := t.rec.begin(spanTransportSet, *t.cur, clk)
	res, err := t.Transport.Set(clk, key, flags, exptime, value)
	t.rec.end(id, clk)
	return res, err
}

// spanStat is the per-kind summary the layer report reads: mean
// duration and mean self time (duration minus the part children cover)
// on both clocks.
type spanStat struct {
	n                   int
	wall, model         float64 // mean duration
	selfWall, selfModel float64 // mean self time
}

// summarize computes per-kind means. Children never overlap each other
// (one driver goroutine), so covered time is the sum of child durations.
func (r *recorder) summarize() [numSpanKinds]spanStat {
	childWall := make([]int64, len(r.spans))
	childModel := make([]int64, len(r.spans))
	for i := range r.spans {
		s := &r.spans[i]
		if s.Parent != 0 {
			childWall[s.Parent-1] += s.WallEnd - s.WallStart
			childModel[s.Parent-1] += s.ModelEnd - s.ModelStart
		}
	}
	var out [numSpanKinds]spanStat
	for i := range r.spans {
		s := &r.spans[i]
		st := &out[s.Kind]
		st.n++
		st.wall += float64(s.WallEnd - s.WallStart)
		st.model += float64(s.ModelEnd - s.ModelStart)
		st.selfWall += float64(s.WallEnd - s.WallStart - childWall[i])
		st.selfModel += float64(s.ModelEnd - s.ModelStart - childModel[i])
	}
	for k := range out {
		if n := float64(out[k].n); n > 0 {
			out[k].wall /= n
			out[k].model /= n
			out[k].selfWall /= n
			out[k].selfModel /= n
		}
	}
	return out
}

// check verifies the span invariants: unique ids, children inside
// their parent on both clocks, one op id per tree.
func (r *recorder) check() error {
	for i := range r.spans {
		s := &r.spans[i]
		if s.ID != uint32(i+1) {
			return fmt.Errorf("span %d has id %d", i+1, s.ID)
		}
		if s.WallEnd < s.WallStart || s.ModelEnd < s.ModelStart {
			return fmt.Errorf("span %d ends before it starts", s.ID)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent >= s.ID {
			return fmt.Errorf("span %d precedes its parent %d", s.ID, s.Parent)
		}
		p := &r.spans[s.Parent-1]
		if s.Op != p.Op {
			return fmt.Errorf("span %d op %d differs from parent's %d", s.ID, s.Op, p.Op)
		}
		if s.WallStart < p.WallStart || s.WallEnd > p.WallEnd ||
			s.ModelStart < p.ModelStart || s.ModelEnd > p.ModelEnd {
			return fmt.Errorf("span %d (%s) not inside parent %d", s.ID, spanNames[s.Kind].name, p.ID)
		}
	}
	return nil
}

// write dumps the spans as one JSON object per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		s := &r.spans[i]
		line := struct {
			ID         uint32 `json:"id"`
			Parent     uint32 `json:"parent"`
			Op         uint32 `json:"op"`
			Name       string `json:"name"`
			Layer      string `json:"layer"`
			WallStart  int64  `json:"wall_start_ns"`
			WallEnd    int64  `json:"wall_end_ns"`
			ModelStart int64  `json:"model_start_ns"`
			ModelEnd   int64  `json:"model_end_ns"`
		}{s.ID, s.Parent, s.Op, spanNames[s.Kind].name, spanNames[s.Kind].layer,
			s.WallStart, s.WallEnd, s.ModelStart, s.ModelEnd}
		if err := enc.Encode(&line); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
