package dist

import (
	"fmt"
	"sync"

	"repro/internal/csim"
	"repro/internal/faults"
	"repro/internal/service"
)

// merger accumulates shard result payloads as they stream back from
// the fleet, deduplicating by shard index: only the first completion
// of a shard counts, so a re-queued shard whose original worker limps
// in late (or a duplicate delivery) cannot double-merge. Shard slots
// are positional, which makes the final merge independent of arrival
// order — faults.MergeResults is permutation-invariant, and feeding it
// the slots in index order removes even the iteration-order freedom.
type merger struct {
	mu sync.Mutex
	//simlint:guarded_by(mu)
	slots []*shardPayload
}

// shardPayload is one shard's accepted result.
type shardPayload struct {
	det   *service.DetectionsView
	stats csim.Stats
}

// newMerger sizes a merger for a K-shard job.
func newMerger(k int) *merger {
	return &merger{slots: make([]*shardPayload, k)}
}

// add accepts shard k's payload unless one was already accepted,
// reporting whether it was kept. A payload without detections is
// rejected with an error: the merge cannot reconstruct the shard's
// result from counters alone.
func (m *merger) add(k int, rv *service.ResultView) (bool, error) {
	if rv == nil || rv.Detections == nil {
		return false, fmt.Errorf("dist: shard %d returned no detections payload", k)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if k < 0 || k >= len(m.slots) {
		return false, fmt.Errorf("dist: shard index %d out of range (%d shards)", k, len(m.slots))
	}
	if m.slots[k] != nil {
		return false, nil
	}
	m.slots[k] = &shardPayload{det: rv.Detections, stats: rv.Stats}
	return true, nil
}

// complete reports how many shard slots hold accepted payloads.
func (m *merger) complete() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, s := range m.slots {
		if s != nil {
			n++
		}
	}
	return n
}

// merge reconstructs every shard result over u and folds them with the
// deterministic first-detection-wins merge, returning the combined
// result and the merged engine stats. Every slot must be filled.
func (m *merger) merge(u *faults.Universe) (*faults.Result, csim.Stats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	parts := make([]*faults.Result, 0, len(m.slots))
	stats := make([]csim.Stats, 0, len(m.slots))
	for k, s := range m.slots {
		if s == nil {
			return nil, csim.Stats{}, fmt.Errorf("dist: shard %d never completed", k)
		}
		res, err := s.det.Result(u)
		if err != nil {
			return nil, csim.Stats{}, fmt.Errorf("dist: shard %d payload: %w", k, err)
		}
		parts = append(parts, res)
		stats = append(stats, s.stats)
	}
	return faults.MergeResults(parts...), csim.MergeStats(stats...), nil
}
