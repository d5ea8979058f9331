//! Per-comparison top-K selection, the test oracle for
//! `kucnet_ppr::PprTopK::select`: the comparator looks both tails' scores
//! up by binary search on every call, and `select_nth_unstable_by` keeps
//! the first `K` candidates it leaves in place. The pre-scored selector
//! must keep the same candidates in the same order.

use kucnet_graph::{NodeId, RelId};

/// The score of `node` in `entries` (sorted by node id), 0 when absent.
fn score(entries: &[(u32, f32)], node: NodeId) -> f32 {
    match entries.binary_search_by_key(&node.0, |&(n, _)| n) {
        Ok(idx) => entries[idx].1,
        Err(_) => 0.0,
    }
}

/// Keeps the `k` candidates with the highest tail score in `entries`.
pub fn select_per_comparison(
    entries: &[(u32, f32)],
    k: usize,
    candidates: &mut Vec<(RelId, NodeId)>,
) {
    if candidates.len() <= k {
        return;
    }
    if let Some(last) = k.checked_sub(1) {
        candidates.select_nth_unstable_by(last, |a, b| {
            let sa = score(entries, a.1);
            let sb = score(entries, b.1);
            sb.partial_cmp(&sa).unwrap_or(std::cmp::Ordering::Equal)
        });
    }
    candidates.truncate(k);
}
