package bench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/mcclient"
)

// This file is the §VII connection-scalability study: how much server
// receive-buffer memory one more client costs, per datapath mode, and
// what that implies at client counts far beyond what the testbed (or
// this simulator) can host as live endpoints. Dedicated RC resources
// are the scaling limit the paper names; the SRQ, UD, and concentrator
// modes each attack a different term of it.

// connScaleModes are the datapaths compared, in report order.
//
//	rc  — baseline: one RC QP per client, per-endpoint credit windows
//	srq — one shared receive pool per server worker (Options.UseSRQ)
//	ud  — SRQ plus the hybrid UD small-get endpoint (Options.UDGets)
//	mux — connection concentrator: connScaleMuxK sessions per RC QP
var connScaleModes = []string{"rc", "srq", "ud", "mux"}

// connScaleMuxK is the concentrator fan-in used by the mux mode.
const connScaleMuxK = 16

// connScaleFitCounts are the live client counts the footprint is
// actually measured at; the linear fit through them extrapolates to the
// counts no simulation could host.
var connScaleFitCounts = []int{8, 48}

// connScaleExtrapCounts are the projected client counts (the paper's
// "very large number of connections" regime).
var connScaleExtrapCounts = []int{100, 1_000, 10_000, 100_000}

// ConnScalePoint is the server receive-buffer footprint at one client
// count. Measured=false rows come from the fixed+slope fit, not a run.
type ConnScalePoint struct {
	Mode            string
	Clients         int
	ServerRecvBytes float64
	PerClientBytes  float64
	Measured        bool
}

// ConnScaleModel is the per-mode linear memory model fitted from the
// measured counts: ServerRecvBytes(n) ≈ Fixed + Slope·n.
type ConnScaleModel struct {
	Mode                string
	FixedBytes          float64
	SlopeBytesPerClient float64
}

// ConnScaleReport is the full sweep: memory models and points for every
// mode, plus aggregate small-get TPS at TPSClients live clients.
type ConnScaleReport struct {
	Models     []ConnScaleModel
	Points     []ConnScalePoint
	TPSClients int
	TPS        map[string]float64
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
	for i := 0; i < nClients; i++ {
		c, err := d.NewClient(cluster.UCRIB, mcclient.DefaultBehaviors())
		if err != nil {
			return 0, err
		}
		defer c.Close()
		if err := c.MC.Set(fmt.Sprintf("warm-%d", i), []byte("x"), 0, 0); err != nil {
			return 0, err
		}
	}
	return d.Server.UCRRecvBufferBytes(), nil
}

// connScaleTPS measures aggregate closed-loop small-get TPS with
// nClients live clients on the mode's datapath, each running
// cfg.OpsPerPoint gets against the shared keyspace.
func connScaleTPS(p *cluster.Profile, mode string, nClients int, cfg RunConfig) (float64, error) {
	cfg.Deploy = connScaleDeploy(mode, cfg.Deploy)
	return TPSPoint(p, cluster.UCRIB, nClients, scalingValueSize, cfg)
}

// ConnScaleSweep runs the connection-scalability study on profile p:
// for every mode it measures the server footprint at the fit counts,
// fits the linear memory model, projects it across the extrapolation
// counts, and measures aggregate small-get TPS with tpsClients live
// closed-loop clients (tpsClients <= 0 defaults to 100, the 10² point
// the acceptance ratio is pinned at).
func ConnScaleSweep(p *cluster.Profile, tpsClients int, cfg RunConfig) (*ConnScaleReport, error) {
	cfg = cfg.withDefaults()
	if tpsClients <= 0 {
		tpsClients = 100
	}
	rep := &ConnScaleReport{
		TPSClients: tpsClients,
		TPS:        make(map[string]float64, len(connScaleModes)),
	}
	for _, mode := range connScaleModes {
		var bytesAt []float64
		for _, n := range connScaleFitCounts {
			b, err := ConnScaleFootprint(p, mode, n, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: connscale %s n=%d: %w", mode, n, err)
			}
			bytesAt = append(bytesAt, float64(b))
			rep.Points = append(rep.Points, ConnScalePoint{
				Mode: mode, Clients: n,
				ServerRecvBytes: float64(b),
				PerClientBytes:  float64(b) / float64(n),
				Measured:        true,
			})
		}
		n1, n2 := float64(connScaleFitCounts[0]), float64(connScaleFitCounts[1])
		slope := (bytesAt[1] - bytesAt[0]) / (n2 - n1)
		fixed := bytesAt[0] - slope*n1
		rep.Models = append(rep.Models, ConnScaleModel{
			Mode: mode, FixedBytes: fixed, SlopeBytesPerClient: slope,
		})
		for _, n := range connScaleExtrapCounts {
			total := fixed + slope*float64(n)
			rep.Points = append(rep.Points, ConnScalePoint{
				Mode: mode, Clients: n,
				ServerRecvBytes: total,
				PerClientBytes:  total / float64(n),
			})
		}
		tps, err := connScaleTPS(p, mode, tpsClients, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: connscale %s tps: %w", mode, err)
		}
		rep.TPS[mode] = tps
	}
	return rep, nil
}

// PerClientAt evaluates a mode's memory model at n clients.
func (r *ConnScaleReport) PerClientAt(mode string, n int) float64 {
	for _, m := range r.Models {
		if m.Mode == mode {
			return (m.FixedBytes + m.SlopeBytesPerClient*float64(n)) / float64(n)
		}
	}
	return 0
}

// ConnScaleTable renders the report: one footprint table (rows =
// client counts, columns = modes, cells = per-client bytes) and the
// TPS line.
func ConnScaleTable(r *ConnScaleReport) string {
	counts := map[int]bool{}
	cell := map[[2]interface{}]ConnScalePoint{}
	for _, pt := range r.Points {
		counts[pt.Clients] = true
		cell[[2]interface{}{pt.Mode, pt.Clients}] = pt
	}
	var ns []int
	for n := range counts {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	var sb strings.Builder
	sb.WriteString("# connection scalability: per-client server recv bytes (* = measured)\n")
	sb.WriteString("clients ")
	for _, m := range connScaleModes {
		fmt.Fprintf(&sb, " %12s", m)
	}
	sb.WriteString("\n")
	for _, n := range ns {
		fmt.Fprintf(&sb, "%-8d", n)
		for _, m := range connScaleModes {
			pt, ok := cell[[2]interface{}{m, n}]
			if !ok {
				fmt.Fprintf(&sb, " %12s", "-")
				continue
			}
			mark := " "
			if pt.Measured {
				mark = "*"
			}
			fmt.Fprintf(&sb, " %11.1f%s", pt.PerClientBytes, mark)
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "# TPS at %d clients:", r.TPSClients)
	for _, m := range connScaleModes {
		fmt.Fprintf(&sb, "  %s=%.0f", m, r.TPS[m])
	}
	sb.WriteString("\n")
	return sb.String()
}
