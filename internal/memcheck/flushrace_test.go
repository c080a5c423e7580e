package memcheck

import (
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mcclient"
	"repro/internal/memcached"
	"repro/internal/simnet"
)

// TestFlushAllWithPipelinedSets races flush_all against a pipelined
// window of in-flight sets, on both transports. The sets commit on
// whichever side of the flush the scheduler lands them — the invariant
// is the horizon rule itself: a key is visible afterwards if and only
// if its last committed set's setAt is at or above the recorded flush
// horizon. The recorder is the oracle; the full history must also pass
// the reference model.
func TestFlushAllWithPipelinedSets(t *testing.T) {
	if memcached.ActiveMutations() != nil {
		t.Skip("store mutations active")
	}
	keys := []string{"fr0", "fr1", "fr2", "fr3", "fr4", "fr5", "fr6", "fr7"}
	for _, tr := range transports {
		t.Run(string(tr), func(t *testing.T) {
			d := cluster.New(cluster.ClusterB(), cluster.Options{
				Servers: 1, ServerWorkers: 2, Stripes: 4, MemoryLimit: 64 << 20,
			})
			defer d.Close()
			cl, err := d.NewClient(tr, mcclient.DefaultBehaviors())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			var mu sync.Mutex
			var recs []*memcached.OpRecord
			store := d.Server.Store()
			store.SetRecorder(func(r *memcached.OpRecord) {
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			})
			defer store.SetRecorder(nil)

			// Ground layer: every key exists well before the flush.
			for _, k := range keys {
				if err := cl.MC.Set(k, []byte("old."+k), 1, 0); err != nil {
					t.Fatal(err)
				}
			}
			cl.Clock.Advance(2 * simnet.Millisecond)

			// A window of sets with a flush landing mid-window: the first
			// half is sent (and timestamped) below the horizon, the second
			// half above it.
			pr, ok := cl.MC.Transport(0).(mcclient.Pipeliner)
			if !ok {
				t.Fatalf("transport %s cannot pipeline", tr)
			}
			pl := pr.Pipeline(len(keys))
			futs := make([]*mcclient.SetFuture, len(keys))
			for i, k := range keys[:len(keys)/2] {
				futs[i] = pl.StartSet(cl.Clock, k, 2, 0, []byte("new."+k))
			}
			if err := pl.Flush(cl.Clock); err != nil {
				t.Fatal(err)
			}
			cl.Clock.Advance(simnet.Millisecond)
			store.FlushAll(cl.Clock.Now())
			for i, k := range keys[len(keys)/2:] {
				futs[len(keys)/2+i] = pl.StartSet(cl.Clock, k, 2, 0, []byte("new."+k))
			}
			if err := pl.Wait(cl.Clock); err != nil {
				t.Fatal(err)
			}
			for i, f := range futs {
				if res, err := f.Wait(cl.Clock); err != nil || res != memcached.Stored {
					t.Fatalf("pipelined set %s: res=%v err=%v", keys[i], res, err)
				}
			}

			// Oracle: last committed set per key, and the flush horizon,
			// straight from the recorder.
			mu.Lock()
			history := append([]*memcached.OpRecord(nil), recs...)
			mu.Unlock()
			sortRecords(history)
			var horizon simnet.Time
			lastSet := map[string]*memcached.OpRecord{}
			for _, r := range history {
				switch r.Kind {
				case memcached.RecFlushAll:
					horizon = r.Horizon
				case memcached.RecSet:
					if r.Res == memcached.Stored {
						lastSet[r.Key] = r
					}
				}
			}
			if horizon == 0 {
				t.Fatal("no flush record in history")
			}

			survivors, flushed := 0, 0
			for _, k := range keys {
				r := lastSet[k]
				if r == nil {
					t.Fatalf("%s: no committed set recorded", k)
				}
				wantHit := r.SetAt >= horizon
				v, _, _, err := cl.MC.Get(k)
				switch {
				case err == nil && !wantHit:
					t.Errorf("%s: hit after flush but setAt=%d < horizon=%d", k, int64(r.SetAt), int64(horizon))
				case err != nil && wantHit:
					t.Errorf("%s: miss after flush but setAt=%d >= horizon=%d (%v)", k, int64(r.SetAt), int64(horizon), err)
				case err == nil && string(v) != "new."+k:
					t.Errorf("%s: survivor has value %q, want %q", k, v, "new."+k)
				}
				if wantHit {
					survivors++
				} else {
					flushed++
				}
			}
			t.Logf("%s: horizon split the window %d flushed / %d survived", tr, flushed, survivors)
			if flushed == 0 || survivors == 0 {
				t.Errorf("%s: flush did not split the window (%d flushed / %d survived)", tr, flushed, survivors)
			}

			// The whole interleaving must also satisfy the reference model.
			mu.Lock()
			history = append([]*memcached.OpRecord(nil), recs...)
			mu.Unlock()
			sortRecords(history)
			if v := checkModel(history); v != nil {
				t.Errorf("history fails the model: %s", v.Error())
			}
		})
	}
}
