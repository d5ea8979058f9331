//! Recall@N and NDCG@N (paper Eqs. 15–16).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use kucnet_graph::ItemId;

/// Metric pair reported throughout the paper.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Recall@N averaged over evaluated users.
    pub recall: f64,
    /// NDCG@N averaged over evaluated users.
    pub ndcg: f64,
}

impl Metrics {
    /// Formats as `recall/ndcg` with 4 decimals (the paper's precision).
    pub fn display(&self) -> String {
        format!("{:.4} {:.4}", self.recall, self.ndcg)
    }
}

/// Computes Recall@N for one user: `|top-N ∩ test| / |test|` (Eq. 15).
pub fn recall_at_n(ranked: &[ItemId], test: &HashSet<ItemId>, n: usize) -> f64 {
    if test.is_empty() {
        return 0.0;
    }
    let hits = ranked.iter().take(n).filter(|i| test.contains(i)).count();
    hits as f64 / test.len() as f64
}

/// Computes NDCG@N for one user (Eq. 16): DCG over the top-N ranked items,
/// normalized by the ideal DCG of `min(|test|, N)` relevant items.
pub fn ndcg_at_n(ranked: &[ItemId], test: &HashSet<ItemId>, n: usize) -> f64 {
    if test.is_empty() {
        return 0.0;
    }
    let dcg: f64 = ranked
        .iter()
        .take(n)
        .enumerate()
        .filter(|(_, i)| test.contains(i))
        .map(|(rank, _)| 1.0 / ((rank + 2) as f64).log2())
        .sum();
    let ideal: f64 = (0..test.len().min(n)).map(|r| 1.0 / ((r + 2) as f64).log2()).sum();
    dcg / ideal
}

/// Returns the indices of the top-`n` scores, best first, skipping
/// non-finite scores (used for masked train positives).
///
/// The order is total: score descending, then index ascending, so equal
/// scores (ties, and `-0.0` against `+0.0`) always rank the lower index
/// first. One pass over `scores` keeps a bounded heap of at most `n`
/// candidates: O(len · log n) time, nothing allocated of size `len`.
/// [`top_n_sparse`] ranks through the same accumulator.
pub fn top_n_indices(scores: &[f32], n: usize) -> Vec<usize> {
    let mut top = TopK::new(n.min(scores.len()));
    for (i, &s) in scores.iter().enumerate() {
        top.offer(i, s);
    }
    top.into_ranked().into_iter().map(|(i, _)| i).collect()
}

/// Ranks a vector of `len` scores that is 0 everywhere except at
/// `entries`, without building it: returns the top-`n` `(index, score)`
/// pairs exactly as [`top_n_indices`] selects them from the dense vector
/// (same indices, same order, bitwise-same scores).
///
/// `entries` must name distinct indices below `len`; their order does not
/// matter. Non-finite entries are skipped, as in the dense ranking. After
/// the entries, the accumulator is offered `+0.0` for the first `n`
/// indices that `entries` does not name, in ascending order: every later
/// unnamed zero ties with those at a higher index, so none can outrank
/// them. O(m · log m + (m + n) · log n) for `m` entries, independent of
/// `len`.
pub fn top_n_sparse(len: usize, entries: &[(u32, f32)], n: usize) -> Vec<(u32, f32)> {
    let n = n.min(len);
    let mut top = TopK::new(n);
    let mut named: Vec<u32> = Vec::with_capacity(entries.len());
    for &(i, s) in entries {
        top.offer(i, s);
        named.push(i);
    }
    named.sort_unstable();
    let mut named = named.into_iter().peekable();
    let mut filled = 0;
    for i in (0..len).map_while(|i| u32::try_from(i).ok()) {
        if filled == n {
            break;
        }
        if named.next_if_eq(&i).is_some() {
            continue;
        }
        top.offer(i, 0.0);
        filled += 1;
    }
    top.into_ranked()
}

/// One ranking candidate. Its `Ord` is "ranks after": a lower score, or an
/// equal score at a higher index, compares greater. Only finite scores are
/// admitted, so the score comparison is total.
struct Ranked<I> {
    score: f32,
    index: I,
}

impl<I: Ord> Ord for Ranked<I> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.index.cmp(&other.index))
    }
}

impl<I: Ord> PartialOrd for Ranked<I> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<I: Ord> PartialEq for Ranked<I> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<I: Ord> Eq for Ranked<I> {}

/// The top-`k` accumulator behind [`top_n_indices`] and [`top_n_sparse`]:
/// a max-heap whose root is the worst candidate kept, so each offer costs
/// one comparison unless it displaces that root.
struct TopK<I> {
    k: usize,
    heap: BinaryHeap<Ranked<I>>,
}

impl<I: Ord> TopK<I> {
    fn new(k: usize) -> Self {
        Self { k, heap: BinaryHeap::with_capacity(k) }
    }

    /// Offers one candidate; non-finite scores are never kept.
    fn offer(&mut self, index: I, score: f32) {
        if !score.is_finite() || self.k == 0 {
            return;
        }
        let cand = Ranked { score, index };
        if self.heap.len() < self.k {
            self.heap.push(cand);
        } else if self.heap.peek().is_some_and(|worst| cand < *worst) {
            if let Some(mut worst) = self.heap.peek_mut() {
                *worst = cand;
            }
        }
    }

    /// The kept candidates, best first.
    fn into_ranked(self) -> Vec<(I, f32)> {
        self.heap.into_sorted_vec().into_iter().map(|r| (r.index, r.score)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(v: &[u32]) -> Vec<ItemId> {
        v.iter().map(|&i| ItemId(i)).collect()
    }

    fn set(v: &[u32]) -> HashSet<ItemId> {
        v.iter().map(|&i| ItemId(i)).collect()
    }

    #[test]
    fn recall_full_hit() {
        let r = items(&[1, 2, 3]);
        let t = set(&[1, 2, 3]);
        assert_eq!(recall_at_n(&r, &t, 3), 1.0);
    }

    #[test]
    fn recall_partial() {
        let r = items(&[1, 9, 8, 2]);
        let t = set(&[1, 2]);
        assert_eq!(recall_at_n(&r, &t, 2), 0.5);
        assert_eq!(recall_at_n(&r, &t, 4), 1.0);
    }

    #[test]
    fn recall_empty_test_is_zero() {
        let r = items(&[1]);
        assert_eq!(recall_at_n(&r, &HashSet::new(), 5), 0.0);
    }

    #[test]
    fn ndcg_perfect_ranking_is_one() {
        let r = items(&[4, 5, 6, 0, 1]);
        let t = set(&[4, 5, 6]);
        assert!((ndcg_at_n(&r, &t, 5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ndcg_rewards_earlier_hits() {
        let t = set(&[7]);
        let early = ndcg_at_n(&items(&[7, 1, 2]), &t, 3);
        let late = ndcg_at_n(&items(&[1, 2, 7]), &t, 3);
        assert!(early > late);
        assert!(late > 0.0);
    }

    #[test]
    fn ndcg_bounded() {
        let t = set(&[1, 2, 3, 4, 5]);
        let v = ndcg_at_n(&items(&[9, 1, 8, 2, 7]), &t, 5);
        assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn top_n_sorted_descending() {
        let scores = vec![0.1, 0.9, f32::NEG_INFINITY, 0.5, 0.7];
        assert_eq!(top_n_indices(&scores, 3), vec![1, 4, 3]);
    }

    #[test]
    fn top_n_handles_short_input() {
        let scores = vec![0.2, 0.1];
        assert_eq!(top_n_indices(&scores, 10), vec![0, 1]);
        assert!(top_n_indices(&[], 3).is_empty());
    }

    #[test]
    fn top_n_breaks_ties_by_index() {
        assert_eq!(top_n_indices(&[0.5, 0.5, 0.0, 0.0], 3), vec![0, 1, 2]);
    }

    #[test]
    fn top_n_sparse_fills_unnamed_zeros_in_index_order() {
        // Dense: [0, 0, -1, 0, 2, 0]; the zero fill must skip the named 2.
        let entries = [(4, 2.0), (2, -1.0)];
        assert_eq!(top_n_sparse(6, &entries, 4), vec![(4, 2.0), (0, 0.0), (1, 0.0), (3, 0.0)]);
        assert_eq!(top_n_sparse(3, &entries[1..], 10), vec![(0, 0.0), (1, 0.0), (2, -1.0)]);
        assert!(top_n_sparse(0, &[], 3).is_empty());
    }

    #[test]
    fn top_n_skips_masked() {
        let scores = vec![f32::NEG_INFINITY; 4];
        assert!(top_n_indices(&scores, 2).is_empty());
    }
}
