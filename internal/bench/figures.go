package bench

import (
	"fmt"

	"repro/internal/cluster"
)

// Figure is one reproduced panel: named series over an x-axis.
type Figure struct {
	// id is the paper's panel id, e.g. "fig3a".
	id string
	// title describes the panel.
	title string
	// xLabel and xTicks define the x-axis.
	xLabel string
	xTicks []string
	// Unit is the y-axis unit.
	Unit string
	// SeriesOrder fixes legend order; Series holds the values.
	SeriesOrder []string
	series      map[string][]float64
}

// FigureSpec describes how to regenerate one panel.
type FigureSpec struct {
	ID      string
	Title   string
	Cluster string // "A" or "B"
	Run     func(cfg RunConfig) (*Figure, error)
}

// latencyFigure builds a latency-sweep panel.
func latencyFigure(id, title string, profileName string, mix Mix, sizes []int) FigureSpec {
	return FigureSpec{
		ID: id, Title: title, Cluster: profileName,
		Run: func(cfg RunConfig) (*Figure, error) {
			p := cluster.ProfileByName(profileName)
			series, err := latencySweep(p, p.Transports, mix, sizes, cfg)
			if err != nil {
				return nil, err
			}
			return assemble(id, title, "message size", "us", sizeTicks(sizes), p.Transports, series), nil
		},
	}
}

// tpsFigure builds a multi-client throughput panel.
func tpsFigure(id, title string, profileName string, size int, counts []int) FigureSpec {
	return FigureSpec{
		ID: id, Title: title, Cluster: profileName,
		Run: func(cfg RunConfig) (*Figure, error) {
			p := cluster.ProfileByName(profileName)
			series, err := TPSSweep(p, p.Transports, counts, size, cfg)
			if err != nil {
				return nil, err
			}
			ticks := make([]string, len(counts))
			for i, n := range counts {
				ticks[i] = fmt.Sprintf("%d", n)
			}
			return assemble(id, title, "number of clients", "KTPS", ticks, p.Transports, series), nil
		},
	}
}

func sizeTicks(sizes []int) []string {
	out := make([]string, len(sizes))
	for i, s := range sizes {
		out[i] = sizeLabel(s)
	}
	return out
}

func assemble(id, title, xlabel, unit string, ticks []string, order []cluster.Transport, series map[cluster.Transport][]float64) *Figure {
	f := &Figure{
		id: id, title: title, xLabel: xlabel, Unit: unit, xTicks: ticks,
		series: make(map[string][]float64, len(series)),
	}
	for _, t := range order {
		if vals, ok := series[t]; ok {
			f.SeriesOrder = append(f.SeriesOrder, string(t))
			f.series[string(t)] = vals
		}
	}
	return f
}

// Figures is the full per-experiment index: every panel of the paper's
// evaluation (Figs 3–6), regenerable by ID.
var Figures = []FigureSpec{
	// Fig 3: Set/Get latency, cluster A (DDR + 10GigE TOE + 1GigE).
	latencyFigure("fig3a", "Set latency, small messages, Cluster A", "A", mixSet, smallSizes),
	latencyFigure("fig3b", "Set latency, large messages, Cluster A", "A", mixSet, largeSizes),
	latencyFigure("fig3c", "Get latency, small messages, Cluster A", "A", MixGet, smallSizes),
	latencyFigure("fig3d", "Get latency, large messages, Cluster A", "A", MixGet, largeSizes),
	// Fig 4: Set/Get latency, cluster B (QDR).
	latencyFigure("fig4a", "Set latency, small messages, Cluster B", "B", mixSet, smallSizes),
	latencyFigure("fig4b", "Set latency, large messages, Cluster B", "B", mixSet, largeSizes),
	latencyFigure("fig4c", "Get latency, small messages, Cluster B", "B", MixGet, smallSizes),
	latencyFigure("fig4d", "Get latency, large messages, Cluster B", "B", MixGet, largeSizes),
	// Fig 5: mixed workloads, small messages.
	latencyFigure("fig5a", "Non-interleaved mix (10% set / 90% get), Cluster A", "A", mixNonInterleaved, smallSizes),
	latencyFigure("fig5b", "Non-interleaved mix (10% set / 90% get), Cluster B", "B", mixNonInterleaved, smallSizes),
	latencyFigure("fig5c", "Interleaved mix (50% set / 50% get), Cluster A", "A", MixInterleaved, smallSizes),
	latencyFigure("fig5d", "Interleaved mix (50% set / 50% get), Cluster B", "B", MixInterleaved, smallSizes),
	// Fig 6: Get TPS vs client count.
	tpsFigure("fig6a", "Get TPS, 4-byte messages, Cluster A", "A", 4, []int{8, 16}),
	tpsFigure("fig6b", "Get TPS, 4KB messages, Cluster A", "A", 4096, []int{8, 16}),
	tpsFigure("fig6c", "Get TPS, 4-byte messages, Cluster B", "B", 4, []int{8, 16}),
	tpsFigure("fig6d", "Get TPS, 4KB messages, Cluster B", "B", 4096, []int{8, 16}),
}

// FigureByID finds a panel spec.
func FigureByID(id string) (FigureSpec, bool) {
	for _, f := range Figures {
		if f.ID == id {
			return f, true
		}
	}
	return FigureSpec{}, false
}
