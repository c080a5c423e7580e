package bench

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/simnet"
	"repro/internal/ucr"
	"repro/internal/verbs"
)

// This file measures the design choices DESIGN.md calls out, beyond the
// paper's figures: the 8 KB eager threshold (§V), worker-thread count
// (§V-A), CQ polling vs events (§II-A1), counter-ack suppression
// (§IV-C), and RC vs UD endpoints (§VII).

// AblationEagerThreshold measures mean get latency for one value size
// under different eager cut-overs, each on a cluster B profile with its
// UCR.EagerThreshold set. Below the threshold a reply is one packed
// transaction; above it the client RDMA-reads the value.
func AblationEagerThreshold(valueSize int, thresholds []int, cfg RunConfig) (map[int]float64, error) {
	cfg = cfg.withDefaults()
	out := make(map[int]float64, len(thresholds))
	for _, th := range thresholds {
		p := cluster.ClusterB()
		p.UCR.EagerThreshold = th
		rec, err := latencyPoint(p, cluster.UCRIB, MixGet, valueSize, cfg)
		if err != nil {
			return nil, err
		}
		out[th] = rec.Mean()
	}
	return out, nil
}

// AblationWorkerCount measures aggregate 4-byte get TPS with nClients
// for each worker-thread count (the §V-A round-robin pool's width).
func AblationWorkerCount(workerCounts []int, nClients int, cfg RunConfig) (map[int]float64, error) {
	cfg = cfg.withDefaults()
	out := make(map[int]float64, len(workerCounts))
	for _, wc := range workerCounts {
		cfg.Deploy.ServerWorkers = wc
		tps, err := tpsPoint(cluster.ClusterB(), cluster.UCRIB, nClients, 4, cfg)
		if err != nil {
			return nil, err
		}
		out[wc] = tps / 1e3
	}
	return out, nil
}

// AblationPollingVsEvents measures small-get latency with the server's
// UCR completion detection in polling vs interrupt mode.
func AblationPollingVsEvents(cfg RunConfig) (pollingUs, eventsUs float64, err error) {
	return offOn(cfg, func(o *cluster.Options, on bool) { o.UCREvents = on })
}

// AblationRCvsUD measures small-get latency with GETs on the reliable
// (RC) endpoint vs on the UD side endpoint (Options.UDGets).
func AblationRCvsUD(cfg RunConfig) (rcUs, udUs float64, err error) {
	return offOn(cfg, func(o *cluster.Options, on bool) { o.UDGets = on })
}

// offOn measures mean 64 B get latency on UCR-IB, cluster B, with one
// deployment option off and then on.
func offOn(cfg RunConfig, set func(o *cluster.Options, on bool)) (offUs, onUs float64, err error) {
	cfg = cfg.withDefaults()
	var us [2]float64
	for i, on := range []bool{false, true} {
		set(&cfg.Deploy, on)
		rec, err := latencyPoint(cluster.ClusterB(), cluster.UCRIB, MixGet, 64, cfg)
		if err != nil {
			return 0, 0, err
		}
		us[i] = rec.Mean()
	}
	return us[0], us[1], nil
}

// AblationCounterAcks measures, at the UCR level, the round-trip cost
// of an eager echo exchange with NULL counters (no internal messages,
// §IV-C) versus with a completion counter (which requires the optional
// ack). It returns mean microseconds for both modes and the ack counts
// observed on the origin.
func AblationCounterAcks(ops int) (nullUs, complUs float64, acksNull, acksCompl uint64, err error) {
	if ops <= 0 {
		ops = 50
	}
	const (
		midReq   = 1
		midReply = 2
	)
	p := cluster.ClusterB()
	nw := simnet.NewNetwork()
	cliNode := nw.AddNode("client")
	srvNode := nw.AddNode("server")
	fab := nw.AddFabric(p.IB)
	cm := verbs.NewCM(fab)
	cliRT := ucr.New(verbs.NewHCA(cliNode, fab, p.HCA), cm, p.UCR)
	srvRT := ucr.New(verbs.NewHCA(srvNode, fab, p.HCA), cm, p.UCR)

	// Server: echo the 8-byte header's counter id back via midReply.
	srvCtx := srvRT.NewContext()
	srvClk := simnet.NewVClock(0)
	srvRT.RegisterHandler(midReq, ucr.Handler{
		Header: func(clk *simnet.VClock, ep *ucr.Endpoint, hdr []byte, dataLen int, _ ucr.CounterID) []byte {
			return make([]byte, dataLen)
		},
		Completion: func(clk *simnet.VClock, ep *ucr.Endpoint, hdr, data []byte, _ ucr.CounterID) {
			replyCtr := ucr.CounterID(binary.LittleEndian.Uint64(hdr))
			_ = ep.Send(clk, midReply, nil, data, nil, replyCtr, nil)
		},
	})
	cliRT.RegisterHandler(midReply, ucr.Handler{
		Header: func(clk *simnet.VClock, ep *ucr.Endpoint, hdr []byte, dataLen int, _ ucr.CounterID) []byte {
			return make([]byte, dataLen)
		},
	})

	lis, lerr := srvRT.Listen("ablate")
	if lerr != nil {
		return 0, 0, 0, 0, lerr
	}
	// Single-threaded toy server, one actor: accept, then progress.
	dispClk := simnet.NewVClock(0)
	srv := fab.Executor().NewActor(func() {
		for {
			req, ok := lis.TryNext(dispClk)
			if !ok {
				break
			}
			if _, err := srvCtx.Accept(req, srvClk); err != nil {
				req.Reject(err)
			}
		}
		for srvCtx.TryProgress(srvClk) {
		}
	})
	lis.SetOwner(srv)
	srvCtx.SetOwner(srv)
	defer func() {
		lis.Close()
		srv.Stop()
		srvCtx.Destroy()
	}()

	cliCtx := cliRT.NewContext()
	cliClk := simnet.NewVClock(0)
	ep, derr := cliRT.Dial(cliCtx, srvNode, "ablate", ucr.Reliable, cliClk, 0)
	if derr != nil {
		return 0, 0, 0, 0, derr
	}
	defer ep.Close()

	payload := make([]byte, 64)
	hdr := make([]byte, 8)
	replyCtr := cliRT.NewCounter()

	measure := func(withCompl bool) (float64, error) {
		rec := &LatencyRecorder{}
		for i := 0; i < ops; i++ {
			binary.LittleEndian.PutUint64(hdr, uint64(replyCtr.ID()))
			var compl *ucr.Counter
			if withCompl {
				compl = cliRT.NewCounter()
			}
			start := cliClk.Now()
			if err := ep.Send(cliClk, midReq, hdr, payload, nil, 0, compl); err != nil {
				return 0, err
			}
			if err := cliCtx.WaitCounter(cliClk, replyCtr, replyCtr.Value()+1, 0); err != nil {
				return 0, err
			}
			if withCompl {
				if err := cliCtx.WaitCounter(cliClk, compl, 1, 0); err != nil {
					return 0, err
				}
				cliRT.FreeCounter(compl)
			}
			rec.record(cliClk.Now() - start)
		}
		return rec.Mean(), nil
	}

	if nullUs, err = measure(false); err != nil {
		return 0, 0, 0, 0, err
	}
	_, _, acksNull, _, _ = cliCtx.Stats()
	if complUs, err = measure(true); err != nil {
		return 0, 0, 0, 0, err
	}
	_, _, acksCompl, _, _ = cliCtx.Stats()
	return nullUs, complUs, acksNull, acksCompl - acksNull, nil
}

// AblationResultString renders a simple id→value table.
func AblationResultString(title string, rows map[int]float64, unit string) string {
	out := "# " + title + "\n"
	keys := make([]int, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		out += fmt.Sprintf("%-8d %.2f %s\n", k, rows[k], unit)
	}
	return out
}
