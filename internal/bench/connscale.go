package bench

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/mcclient"
)

// This file is the §VII connection-scalability study: how much server
// receive-buffer memory one more client costs, per datapath mode, up to
// the "very large number of connections" regime the paper names.
// Dedicated RC resources are the scaling limit the paper names; the
// SRQ, UD, and concentrator modes each attack a different term of it.
// Every row is a live deployment: a posted receive reserves modeled
// bytes but holds no host memory, so 10⁴ clients fit in one process.

// connScaleModes are the datapaths compared, in report order.
//
//	rc  — baseline: one RC QP per client, per-endpoint credit windows
//	srq — one shared receive pool per server worker (Options.UseSRQ)
//	ud  — SRQ plus the hybrid UD small-get endpoint (Options.UDGets)
//	mux — connection concentrator: connScaleMuxK sessions per RC QP
var connScaleModes = []string{"rc", "srq", "ud", "mux"}

// connScaleMuxK is the concentrator fan-in used by the mux mode.
const connScaleMuxK = 16

// connScaleCounts are the client counts the footprint is measured at.
var connScaleCounts = []int{8, 48, 100, 1_000, 10_000}

// connScaleTPSClients is the live client count the TPS line runs at.
const connScaleTPSClients = 100

// ConnScaleReport is the full sweep: for every mode, the server's total
// receive-buffer bytes at each of connScaleCounts, and aggregate
// small-get TPS at connScaleTPSClients live clients.
type ConnScaleReport struct {
	recvBytes map[string][]int64
	tps       map[string]float64
}

// connScaleDeploy maps a mode name onto deployment options.
func connScaleDeploy(mode string, o cluster.Options) cluster.Options {
	switch mode {
	case "srq":
		o.UseSRQ = true
	case "ud":
		o.UseSRQ = true
		o.UDGets = true
	case "mux":
		o.SessionsPerQP = connScaleMuxK
	}
	return o
}

// ConnScaleFootprint measures total server receive-buffer bytes on one
// of connScaleModes' datapaths after nClients connect and trade one op
// each.
func ConnScaleFootprint(p *cluster.Profile, mode string, nClients int, cfg RunConfig) (int64, error) {
	d := cluster.New(p, connScaleDeploy(mode, cfg.Deploy))
	defer d.Close()
	clients := make([]*cluster.Client, 0, nClients)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i := 0; i < nClients; i++ {
		c, err := d.NewClient(cluster.UCRIB, mcclient.DefaultBehaviors())
		if err != nil {
			return 0, err
		}
		clients = append(clients, c)
		if err := c.MC.Set(fmt.Sprintf("warm-%d", i), []byte("x"), 0, 0); err != nil {
			return 0, err
		}
	}
	return d.Server.UCRRecvBufferBytes(), nil
}

// ConnScaleSweep runs the connection-scalability study on profile p:
// for every mode it measures the server footprint at every one of
// connScaleCounts and aggregate small-get TPS with connScaleTPSClients
// live closed-loop clients, each running cfg.OpsPerPoint gets against
// the shared keyspace.
func ConnScaleSweep(p *cluster.Profile, cfg RunConfig) (*ConnScaleReport, error) {
	cfg = cfg.withDefaults()
	rep := &ConnScaleReport{
		recvBytes: make(map[string][]int64, len(connScaleModes)),
		tps:       make(map[string]float64, len(connScaleModes)),
	}
	for _, mode := range connScaleModes {
		for _, n := range connScaleCounts {
			b, err := ConnScaleFootprint(p, mode, n, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: connscale %s n=%d: %w", mode, n, err)
			}
			rep.recvBytes[mode] = append(rep.recvBytes[mode], b)
		}
		tpsCfg := cfg
		tpsCfg.Deploy = connScaleDeploy(mode, cfg.Deploy)
		tps, err := tpsPoint(p, cluster.UCRIB, connScaleTPSClients, scalingValueSize, tpsCfg)
		if err != nil {
			return nil, fmt.Errorf("bench: connscale %s tps: %w", mode, err)
		}
		rep.tps[mode] = tps
	}
	return rep, nil
}

// ConnScaleTable renders the report: one footprint table (rows =
// client counts, columns = modes, cells = per-client bytes) and the
// TPS line.
func ConnScaleTable(r *ConnScaleReport) string {
	var sb strings.Builder
	sb.WriteString("# connection scalability: per-client server recv bytes\n")
	sb.WriteString("clients ")
	for _, m := range connScaleModes {
		fmt.Fprintf(&sb, " %12s", m)
	}
	sb.WriteString("\n")
	for i, n := range connScaleCounts {
		fmt.Fprintf(&sb, "%-8d", n)
		for _, m := range connScaleModes {
			fmt.Fprintf(&sb, " %12.1f", float64(r.recvBytes[m][i])/float64(n))
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "# TPS at %d clients:", connScaleTPSClients)
	for _, m := range connScaleModes {
		fmt.Fprintf(&sb, "  %s=%.0f", m, r.tps[m])
	}
	sb.WriteString("\n")
	return sb.String()
}
