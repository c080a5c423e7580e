package main

import (
	"repro/internal/cluster"
	"repro/internal/mcclient"
	"repro/internal/memcached"
	"repro/internal/simnet"
	"repro/internal/ucr"
)

// counters is one reading of the public counters the layers export that
// may be read while the deployment runs. Ratios and busy fractions are
// differences of two readings taken around the traced phase, with every
// client's reply already in hand. (Server.UCRBatchedDrains may not: the
// workers update it unsynchronised, so drainsPerOp reads it after Close.)
type counters struct {
	linkBusy   map[string]simnet.Duration // simnet: per link direction
	hcaSend    []simnet.Duration          // verbs: per server HCA
	hcaRecv    []simnet.Duration
	retransmit uint64 // verbs: every HCA
	ams        uint64 // ucr: client progress contexts, both directions
	acks       uint64
	rdmaReads  uint64
	regHits    uint64 // ucr: registration caches, every runtime
	regMisses  uint64
	sockRetx   uint64          // sockstream: provider retransmissions
	lockBusy   simnet.Duration // memcached: stripe locks, every server
	store      memcached.Stats // memcached: engine counters, summed
	wrHits     uint64          // mcclient: write-reply landings
	fleet      cluster.FleetClientStats
}

func (r *rig) snapshot() counters {
	c := counters{linkBusy: r.d.IB.Utilization()}
	for i, srv := range r.d.Servers {
		s, rv := r.d.ServerHCAs[i].Utilization()
		c.hcaSend, c.hcaRecv = append(c.hcaSend, s), append(c.hcaRecv, rv)
		c.retransmit += r.d.ServerHCAs[i].Retransmits()
		h, m := r.d.ServerRTs[i].RegCacheStats()
		c.regHits, c.regMisses = c.regHits+h, c.regMisses+m
		busy, _ := srv.Store().LockStats()
		c.lockBusy += busy
		st := srv.Store().Stats()
		c.store.GetHits += st.GetHits
		c.store.GetMisses += st.GetMisses
		c.store.Evictions += st.Evictions
	}
	if p := r.d.Provider(r.w.Transport); p != nil {
		c.sockRetx = p.Retransmits()
	}
	for _, cl := range r.clients {
		rt := cl.Runtime()
		if rt == nil {
			continue
		}
		c.retransmit += rt.HCA().Retransmits()
		h, m := rt.RegCacheStats()
		c.regHits, c.regMisses = c.regHits+h, c.regMisses+m
		ut := cl.MC.Transport(0).(*mcclient.UCRTransport)
		c.wrHits += ut.WriteReplyHits()
		c.addContext(ut.Endpoint().Context())
	}
	for _, fc := range r.fclients {
		// A fleet client keeps its runtime and contexts private, so its
		// UCR and HCA counters are not reachable from outside the
		// package; only the replication counters are.
		c.fleet.Ops += fc.Stats.Ops
		c.fleet.PrimaryHits += fc.Stats.PrimaryHits
		c.fleet.ReplicaHits += fc.Stats.ReplicaHits
		c.fleet.Repairs += fc.Stats.Repairs
		c.fleet.Downs += fc.Stats.Downs
	}
	return c
}

func (c *counters) addContext(ctx *ucr.Context) {
	in, out, ackIn, ackOut, reads := ctx.Stats()
	c.ams += in + out
	c.acks += ackIn + ackOut
	c.rdmaReads += reads
}

// counterMetrics turns two readings around a phase into the per-layer
// ratios. Busy fractions are virtual busy time over the phase's virtual
// makespan, for the busiest instance of the resource.
func counterMetrics(r *rig, a, b counters, p *phase, out values) {
	ops := float64(p.ops)
	span := float64(p.makespan)
	var link simnet.Duration
	for name, busy := range b.linkBusy {
		link = simnet.MaxTime(link, busy-a.linkBusy[name])
	}
	out["simnet.link_busy_frac"] = float64(link) / span
	var send, recv simnet.Duration
	for i := range b.hcaSend {
		var s0, r0 simnet.Duration
		if i < len(a.hcaSend) {
			s0, r0 = a.hcaSend[i], a.hcaRecv[i]
		}
		send = simnet.MaxTime(send, b.hcaSend[i]-s0)
		recv = simnet.MaxTime(recv, b.hcaRecv[i]-r0)
	}
	out["verbs.hca_send_busy_frac"] = float64(send) / span
	out["verbs.hca_recv_busy_frac"] = float64(recv) / span
	out["verbs.retransmits"] = float64(b.retransmit - a.retransmit)

	out["ucr.ams_per_op"] = float64(b.ams-a.ams) / ops
	out["ucr.acks_per_op"] = float64(b.acks-a.acks) / ops
	out["ucr.rdma_reads_per_op"] = float64(b.rdmaReads-a.rdmaReads) / ops
	out["ucr.regcache_hit_ratio"] = ratio(b.regHits-a.regHits, b.regMisses-a.regMisses)
	// A fleet client dials each owner it routes to: all of them here.
	conns := len(r.clients) + len(r.fclients)*r.w.Servers
	var recvBytes int64
	for _, srv := range r.d.Servers {
		recvBytes += srv.UCRRecvBufferBytes()
	}
	out["ucr.recv_buffer_bytes_per_conn"] = float64(recvBytes) / float64(conns)

	out["sockstream.retransmits"] = float64(b.sockRetx - a.sockRetx)

	stripes := len(r.d.Servers) * r.d.Opts.Stripes
	out["memcached.lock_busy_frac"] = float64(b.lockBusy-a.lockBusy) / span / float64(stripes)
	out["memcached.hit_ratio"] = ratio(b.store.GetHits-a.store.GetHits, b.store.GetMisses-a.store.GetMisses)
	out["memcached.evictions"] = float64(b.store.Evictions - a.store.Evictions)

	out["mcclient.write_reply_hits_per_op"] = float64(b.wrHits-a.wrHits) / float64(max(p.tally.gets, 1))
}

// drainsPerOp reads the servers' batched-drain counters from a closed
// deployment: batched CQ drains per client op over the deployment's
// whole life — populate, warm-up and the phase's ops — because the
// counter cannot be read race-free while the workers run.
func (r *rig) drainsPerOp(phaseOps int) float64 {
	var drains uint64
	for _, srv := range r.d.Servers {
		drains += srv.UCRBatchedDrains()
	}
	return float64(drains) / float64(len(r.in.keys)+warmupOps*r.w.Clients+phaseOps)
}

// fleetMetrics reports the replication counters of a fleet client.
func fleetMetrics(a, b cluster.FleetClientStats, out values) {
	out["cluster.fleet_primary_hit_ratio"] = ratio(b.PrimaryHits-a.PrimaryHits, b.ReplicaHits-a.ReplicaHits)
	out["cluster.fleet_repairs"] = float64(b.Repairs - a.Repairs)
	out["cluster.fleet_downs"] = float64(b.Downs - a.Downs)
}

// ratio is good/(good+bad); 0 when nothing was attempted.
func ratio(good, bad uint64) float64 {
	if good+bad == 0 {
		return 0
	}
	return float64(good) / float64(good+bad)
}

// attribution is the per-op decomposition the traced run prints: the
// named self costs of one isolated GET, layer by layer, and what is
// left of the workload's per-op time on each clock.
//
//	op time = unattributed + mcclient.client_self + mcclient.transport_self
//	        + memcached.serve_self + (ucr.self + verbs.pingpong | sockstream.rtt)
//	        [+ cluster.fleet_self on a fleet workload]
//
// unattributed therefore holds the harness's own cost per op plus
// whatever isolated probes cannot see: the SET share of the mix,
// queueing under fan-in, and (negative) the overlap a pipeline or many
// clients buy.
func attribute(w *workload, sp stackProbe, spans [numSpanKinds]spanStat, wallPerOp, modelPerOp float64, out values) {
	baseWall, baseModel := out["ucr.am_rtt_wall_ns"], out["ucr.am_rtt_model_ns"]
	if w.Transport != cluster.UCRIB {
		baseWall, baseModel = out["sockstream.rtt_wall_ns"], out["sockstream.rtt_model_ns"]
	}
	out["mcclient.transport_self_wall_ns"] = sp.getWall - sp.rawWall
	out["mcclient.transport_self_model_ns"] = sp.getModel - sp.rawModel
	out["memcached.serve_self_wall_ns"] = sp.rawWall - baseWall
	out["memcached.serve_self_model_ns"] = sp.rawModel - baseModel
	// mcclient.Client's own cost: its span minus the transport span under
	// it (0 where the workload does not go through mcclient.Client).
	out["mcclient.client_self_wall_ns"] = spans[spanClientGet].selfWall

	named := out["mcclient.client_self_wall_ns"] + sp.getWall
	if w.Kind == kindFleet {
		named += out["cluster.fleet_self_wall_ns"]
	}
	out["benchmark.unattributed_wall_ns"] = wallPerOp - named
	out["benchmark.unattributed_model_ns"] = modelPerOp - spans[spanClientGet].selfModel - sp.getModel
}
