package core

import "sliceline/internal/obs"

// coreObs bundles the pre-resolved metric handles of the enumeration loop.
// Handles are looked up once per run; with a nil registry every handle is nil
// and all updates are no-ops, so the disabled path costs nothing beyond the
// nil checks inside the handle methods.
type coreObs struct {
	runs       *obs.Counter
	levels     *obs.Counter
	candidates *obs.Counter
	pruned     *obs.Counter
	threshold  *obs.Gauge
	levelSecs  *obs.Histogram
	evalSecs   *obs.Histogram
	ckSaves    *obs.Counter
	ckLoads    *obs.Counter
}

func newCoreObs(r *obs.Registry) coreObs {
	return coreObs{
		runs:       r.Counter("sl_core_runs_total", "SliceLine enumeration runs started."),
		levels:     r.Counter("sl_core_levels_total", "Lattice levels enumerated."),
		candidates: r.Counter("sl_core_candidates_total", "Slice candidates evaluated."),
		pruned:     r.Counter("sl_core_pruned_total", "Candidates the join bounded and pruned by score before evaluation."),
		threshold:  r.Gauge("sl_core_topk_threshold", "Current top-K score pruning threshold sc_k."),
		levelSecs:  r.Histogram("sl_core_level_seconds", "Wall time per lattice level.", nil),
		evalSecs:   r.Histogram("sl_core_eval_seconds", "Wall time per candidate-evaluation call.", nil),
		ckSaves:    r.Counter("sl_core_checkpoint_saves_total", "Checkpoints written."),
		ckLoads:    r.Counter("sl_core_checkpoint_loads_total", "Checkpoints restored on resume."),
	}
}

// setPruneAttrs exposes a level's per-rule pruning breakdown as span
// attributes. pruned_parents counts the unions the prefix join met from
// their prefix pair that lack another parent; unlike the other rules it
// depends on column order, and LevelStats.Pruned leaves it out. A nil span
// skips the work entirely.
func setPruneAttrs(sp *obs.Span, pr pruneStats) {
	if sp == nil {
		return
	}
	sp.SetInt("pruned_pair_score", int64(pr.pairScore))
	sp.SetInt("pruned_dead_pair", int64(pr.dead))
	sp.SetInt("pruned_score", int64(pr.score))
	sp.SetInt("pruned_parents", int64(pr.parents))
	sp.SetInt("dropped_parents", int64(pr.dropped))
}
