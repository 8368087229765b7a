//! Critical-path extraction, including across worker-pool fan-outs.
//!
//! A span stream is a forest *per thread*: `parent_id` only links spans
//! on their opening thread. Work fanned out on a
//! `dwv_core::WorkerPool` shows up as root spans on worker threads,
//! which would orphan the hottest subtree from the path. *Adoption*
//! restores the logical tree: a root span is adopted by the smallest
//! enclosing span on another thread (the tightest interval that contains
//! it), which for `pool.map` is exactly the fan-out span that spawned the
//! work.

use crate::forest::SpanForest;
use crate::model::SpanRecord;

/// Containment slack (µs) for adoption: open stamps are estimated from
/// separate clock reads, so a worker span can appear to start a hair
/// before its logical parent.
pub const ADOPT_SLACK_US: f64 = 16.0;

/// Computes the adopter of every node: for roots, the smallest span on a
/// *different* thread whose interval contains them (within
/// [`ADOPT_SLACK_US`]); `None` for non-roots and true roots. The adopter
/// must be strictly larger (or same-sized with a smaller span id), which
/// rules out adoption cycles.
#[must_use]
pub fn adoption(spans: &[SpanRecord], forest: &SpanForest) -> Vec<Option<usize>> {
    let mut adopter = vec![None; spans.len()];
    for &r in forest.roots() {
        let Some(root) = spans.get(r) else { continue };
        let mut best: Option<(f64, u64, usize)> = None;
        for (j, s) in spans.iter().enumerate() {
            if s.tid == root.tid {
                continue;
            }
            let contains = s.start_us() <= root.start_us() + ADOPT_SLACK_US
                && root.end_us() <= s.end_us() + ADOPT_SLACK_US;
            let bigger =
                s.dur_us > root.dur_us || (s.dur_us == root.dur_us && s.span_id < root.span_id);
            if !(contains && bigger) {
                continue;
            }
            let key = (s.dur_us, s.span_id, j);
            let better = match &best {
                None => true,
                Some((d, id, _)) => s.dur_us < *d || (s.dur_us == *d && s.span_id < *id),
            };
            if better {
                best = Some(key);
            }
        }
        if let (Some((_, _, j)), Some(slot)) = (best, adopter.get_mut(r)) {
            *slot = Some(j);
        }
    }
    adopter
}

/// Extracts the critical path: starting from the longest true root
/// (no parent, no adopter), repeatedly descend into the longest child —
/// same-thread children and adopted worker roots alike. Ties break by
/// earliest open stamp, then smallest span id. Returns the span names
/// from root to leaf; empty for an empty trace.
#[must_use]
pub fn critical_path(spans: &[SpanRecord], forest: &SpanForest) -> Vec<String> {
    let adopter = adoption(spans, forest);
    // Children including adopted worker roots, re-sorted deterministically.
    let mut kids: Vec<Vec<usize>> = (0..spans.len())
        .map(|i| forest.children(i).to_vec())
        .collect();
    for (r, a) in adopter.iter().enumerate() {
        if let Some(slot) = a.and_then(|a| kids.get_mut(a)) {
            slot.push(r);
        }
    }
    let sort_key = |i: usize| spans.get(i).map(|s| (s.start_us(), s.span_id));
    for slot in &mut kids {
        slot.sort_by(|&a, &b| match (sort_key(a), sort_key(b)) {
            (Some((sa, ia)), Some((sb, ib))) => sa.total_cmp(&sb).then(ia.cmp(&ib)),
            _ => std::cmp::Ordering::Equal,
        });
    }
    // True roots: no same-thread parent and no adopter.
    let longest = |candidates: &mut dyn Iterator<Item = usize>| -> Option<usize> {
        candidates.fold(None, |best: Option<usize>, i| {
            let Some(s) = spans.get(i) else { return best };
            match best.and_then(|b| spans.get(b).map(|r| (b, r))) {
                None => Some(i),
                Some((b, r)) => {
                    if s.dur_us > r.dur_us
                        || (s.dur_us == r.dur_us
                            && (s.start_us(), s.span_id) < (r.start_us(), r.span_id))
                    {
                        Some(i)
                    } else {
                        Some(b)
                    }
                }
            }
        })
    };
    let mut true_roots = forest
        .roots()
        .iter()
        .copied()
        .filter(|&r| adopter.get(r).copied().flatten().is_none());
    let Some(mut at) = longest(&mut true_roots) else {
        return Vec::new();
    };
    let mut path = Vec::new();
    // The path length is bounded by the node count; the explicit budget
    // makes that termination obvious even on malformed input.
    for _ in 0..=spans.len() {
        match spans.get(at) {
            Some(s) => path.push(s.name.clone()),
            None => break,
        }
        let mut below = kids
            .get(at)
            .map_or(&[] as &[usize], Vec::as_slice)
            .iter()
            .copied();
        match longest(&mut below) {
            Some(next) => at = next,
            None => break,
        }
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(span_id: u64, parent_id: u64, tid: u64, name: &str, start: f64, dur: f64) -> SpanRecord {
        SpanRecord {
            t_us: start + dur,
            tid,
            name: name.to_string(),
            span_id,
            parent_id,
            dur_us: dur,
        }
    }

    #[test]
    fn descends_into_the_longest_child() {
        let spans = vec![
            rec(2, 1, 0, "train", 1.0, 10.0),
            rec(3, 1, 0, "verify", 12.0, 30.0),
            rec(4, 3, 0, "reach.run", 13.0, 28.0),
            rec(1, 0, 0, "pipeline", 0.0, 50.0),
        ];
        let forest = SpanForest::from_records(&spans);
        assert_eq!(
            critical_path(&spans, &forest),
            vec!["pipeline", "verify", "reach.run"]
        );
    }

    #[test]
    fn adoption_crosses_worker_pool_fan_outs() {
        let spans = vec![
            // Worker-side roots inside the pool.map interval.
            rec(3, 0, 1, "pool.chunk", 11.0, 18.0),
            rec(4, 3, 1, "pool.item", 12.0, 16.0),
            rec(2, 1, 0, "pool.map", 10.0, 20.0),
            rec(1, 0, 0, "pipeline", 0.0, 40.0),
        ];
        let forest = SpanForest::from_records(&spans);
        let adopter = adoption(&spans, &forest);
        assert_eq!(adopter[0], Some(2), "worker root adopted by pool.map");
        assert_eq!(adopter[1], None, "non-root never adopted");
        assert_eq!(adopter[3], None, "true root stays a root");
        assert_eq!(
            critical_path(&spans, &forest),
            vec!["pipeline", "pool.map", "pool.chunk", "pool.item"]
        );
    }

    #[test]
    fn empty_trace_has_empty_path() {
        let forest = SpanForest::from_records(&[]);
        assert!(critical_path(&[], &forest).is_empty());
    }
}
