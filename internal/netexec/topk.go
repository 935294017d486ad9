// Coordinator side of distributed top-k pushdown.
//
// For an eligible ORDER BY <aggregate> LIMIT k query, phase 1 fans out
// with partialOpts.kPrime = k′ (TopKOverfetch × k; protocol.go is how it
// travels): each worker prunes its partial to the local top k′ groups and
// reports the threshold bounding everything it did not send. The
// engine.TopKMerger certifies the global top k from those bounds. When
// bounds don't certify, exactly one second phase fetches the uncertain keys
// from the workers missing them (threshold-algorithm style); when even
// that cannot certify — groups no worker surfaced could still displace the
// top k — the coordinator falls back to a plain full-partial fan-out,
// which is always correct.
//
// Pushdown only runs under exact failure semantics: degradation drops
// partitions, breaking the bound math. Both phases are ordinary fan-outs
// (gather), so retries, hedges and a migration's dual-read window apply to
// them as to any other call; a dual-read answer brings the bound of the
// placement it came from. A worker that ships a full partial without the
// topk response headers counts as a complete contribution.

package netexec

import (
	"context"
	"strconv"

	"cubrick/internal/engine"
)

// topkEligible reports whether this query, under this coordinator's
// policy, should attempt top-k pushdown.
func (c *Coordinator) topkEligible(q *engine.Query) bool {
	if c.TopKOverfetch <= 0 || !c.Policy.exact() {
		return false
	}
	_, ok := engine.TopKSpecFor(q)
	return ok
}

// queryTopK is the top-k strategy. When the bounds cannot certify a top k
// it hands the query to the plain strategy; the phase-1 work is sunk cost,
// correctness is not. The epochs map is non-nil only for single-phase
// certifications with a complete epoch vector — a second phase mixes
// per-partition epochs, so its result must not enter the result cache.
func (c *Coordinator) queryTopK(parent context.Context, targets []Target, q *engine.Query, base partialOpts) (*engine.Result, map[string]uint64, error) {
	m, ok := engine.NewTopKMerger(q)
	if !ok {
		return c.queryPlain(parent, targets, q, base)
	}
	ctx, span := c.Tracer.StartSpan(parent, "coordinator.topk")
	kPrime := q.Limit * c.TopKOverfetch
	span.SetAttrInt("k", int64(q.Limit))
	span.SetAttrInt("k_prime", int64(kPrime))
	c.count("netexec.topk.queries")

	opts := base
	opts.kPrime = kPrime
	phase1 := make([]call, len(targets))
	for i, t := range targets {
		phase1[i] = call{t, opts}
	}
	// workerTarget maps the merger's worker index back to the target it
	// came from, for second-phase routing.
	workerTarget := make([]int, 0, len(targets))
	epochs, _, err := c.gather(ctx, q, phase1, func(i int, blob []byte, meta partialMeta) error {
		p, err := engine.UnmarshalPartial(q, blob)
		if err != nil {
			return err
		}
		if meta.hasThreshold && p.GroupCount() > 0 {
			// Wire-savings estimate: dropped groups at the pruned blob's
			// observed bytes-per-group rate (uncompressed).
			c.countAdd("netexec.topk.bytes_saved",
				int64(meta.dropped)*int64(len(blob))/int64(p.GroupCount()))
		}
		wi, err := m.Add(p, meta.threshold, meta.hasThreshold)
		if err != nil {
			return err
		}
		for len(workerTarget) <= wi {
			workerTarget = append(workerTarget, 0)
		}
		workerTarget[wi] = i
		return nil
	})
	if err != nil {
		span.EndErr(err)
		return nil, nil, err
	}

	res := m.Resolve()
	phase2 := !res.Certified && !res.UnseenBlocked && len(res.NeedKeys) > 0
	if phase2 {
		c.count("netexec.topk.second_phase")
		span.SetAttrInt("phase2_workers", int64(len(res.NeedKeys)))
		workers := make([]int, 0, len(res.NeedKeys))
		calls := make([]call, 0, len(res.NeedKeys))
		for wi, keys := range res.NeedKeys {
			opts := base
			opts.keys = keys
			workers = append(workers, wi)
			calls = append(calls, call{targets[workerTarget[wi]], opts})
		}
		_, _, err := c.gather(ctx, q, calls, func(i int, blob []byte, _ partialMeta) error {
			p, err := engine.UnmarshalPartial(q, blob)
			if err != nil {
				return err
			}
			return m.AddResolved(workers[i], p, calls[i].opts.keys)
		})
		if err != nil {
			span.EndErr(err)
			return nil, nil, err
		}
		res = m.Resolve()
	}

	if !res.Certified {
		// UnseenBlocked (directly, or after the second phase): only full
		// partials can recover the groups nobody surfaced.
		c.count("netexec.topk.fallback")
		span.SetAttr("outcome", "fallback")
		span.End()
		return c.queryPlain(parent, targets, q, base)
	}
	c.count("netexec.topk.certified")
	span.SetAttr("outcome", "certified")
	span.SetAttr("phase2", strconv.FormatBool(phase2))
	final := res.Result.Finalize()
	span.End()
	if phase2 {
		epochs = nil
	}
	return final, epochs, nil
}
