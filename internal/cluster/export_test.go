package cluster

import "repro/internal/mcclient"

// TrunkPaths reports how many concentrator trunks were dialed (0 unless
// Options.SessionsPerQP > 1) and their read-path counters, summed over
// every trunk and server.
func (d *Deployment) TrunkPaths() (trunks int, paths mcclient.PathStats) {
	for _, tr := range d.trunks {
		for _, ut := range tr.trs {
			paths.Add(ut.PathStats())
		}
	}
	return len(d.trunks), paths
}
