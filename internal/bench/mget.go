package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mcclient"
)

// MGetComparison measures fetching batchSize items of valueSize bytes
// as individual Gets versus one batched GetMulti, per transport. The
// paper (§V) notes mget follows from the same active-message
// principles; this quantifies what the batching buys on each path.
type MGetComparison struct {
	Transport   cluster.Transport
	SinglesUs   float64 // total virtual µs for batchSize single gets
	BatchedUs   float64 // virtual µs for one GetMulti of the same keys
	Improvement float64
}

// MGetSweep runs the comparison on the given profile.
func MGetSweep(p *cluster.Profile, transports []cluster.Transport, batchSize, valueSize int, cfg RunConfig) ([]MGetComparison, error) {
	cfg = cfg.withDefaults()
	var out []MGetComparison
	for _, tr := range transports {
		d := cluster.New(p, cfg.Deploy)
		c, err := d.NewClient(tr, mcclient.DefaultBehaviors())
		if err != nil {
			d.Close()
			return nil, err
		}
		keys := make([]string, batchSize)
		w := newWorkload(cfg.Seed, 1, valueSize)
		for i := range keys {
			keys[i] = fmt.Sprintf("mget-%04d", i)
			if err := c.MC.Set(keys[i], w.value, 0, 0); err != nil {
				c.Close()
				d.Close()
				return nil, err
			}
		}
		// Warm once each way.
		for _, k := range keys[:1] {
			if _, _, _, err := c.MC.Get(k); err != nil {
				c.Close()
				d.Close()
				return nil, err
			}
		}
		if _, err := c.MC.GetMulti(keys); err != nil {
			c.Close()
			d.Close()
			return nil, err
		}

		const rounds = 10
		start := c.Clock.Now()
		for r := 0; r < rounds; r++ {
			for _, k := range keys {
				if _, _, _, err := c.MC.Get(k); err != nil {
					c.Close()
					d.Close()
					return nil, err
				}
			}
		}
		singles := float64(c.Clock.Now()-start) / rounds / 1e3

		start = c.Clock.Now()
		for r := 0; r < rounds; r++ {
			got, err := c.MC.GetMulti(keys)
			if err != nil || len(got) != batchSize {
				c.Close()
				d.Close()
				return nil, fmt.Errorf("bench: mget on %s: %d items, %v", tr, len(got), err)
			}
		}
		batched := float64(c.Clock.Now()-start) / rounds / 1e3

		out = append(out, MGetComparison{
			Transport:   tr,
			SinglesUs:   singles,
			BatchedUs:   batched,
			Improvement: singles / batched,
		})
		c.Close()
		d.Close()
	}
	return out, nil
}
