//! Property tests for the metric implementations: bounds, monotonicity, and
//! agreement with brute-force definitions.

use std::collections::HashSet;

use proptest::prelude::*;

use kucnet_eval::{ndcg_at_n, recall_at_n, top_n_indices, top_n_sparse};
use kucnet_graph::ItemId;

fn ranked(ids: &[u32]) -> Vec<ItemId> {
    ids.iter().map(|&i| ItemId(i)).collect()
}

/// Decodes a score that stresses a ranking: ties among small halves,
/// both zeros, negatives, NaN and both infinities.
fn edge_score(code: u8) -> f32 {
    match code {
        0..=6 => (f32::from(code) - 3.0) * 0.5,
        7 => -0.0,
        8 => f32::NAN,
        9 => f32::INFINITY,
        _ => f32::NEG_INFINITY,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both metrics live in [0, 1] for arbitrary rankings and test sets.
    #[test]
    fn metrics_bounded(
        ranking in proptest::collection::vec(0u32..50, 0..30),
        test in proptest::collection::hash_set(0u32..50, 0..10),
        n in 1usize..25,
    ) {
        let r = ranked(&ranking);
        let t: HashSet<ItemId> = test.into_iter().map(ItemId).collect();
        let rec = recall_at_n(&r, &t, n);
        let ndcg = ndcg_at_n(&r, &t, n);
        prop_assert!((0.0..=1.0).contains(&rec));
        prop_assert!((0.0..=1.0 + 1e-12).contains(&ndcg));
    }

    /// Recall is monotone in N: seeing more of the ranking never hurts.
    #[test]
    fn recall_monotone_in_n(
        ranking in proptest::collection::vec(0u32..50, 1..30),
        test in proptest::collection::hash_set(0u32..50, 1..10),
    ) {
        let r = ranked(&ranking);
        let t: HashSet<ItemId> = test.into_iter().map(ItemId).collect();
        let mut prev = 0.0;
        for n in 1..=r.len() {
            let cur = recall_at_n(&r, &t, n);
            prop_assert!(cur + 1e-12 >= prev);
            prev = cur;
        }
    }

    /// Recall matches the brute-force definition |top-N ∩ T| / |T|.
    #[test]
    fn recall_matches_definition(
        ranking in proptest::collection::vec(0u32..30, 1..20),
        test in proptest::collection::hash_set(0u32..30, 1..8),
        n in 1usize..15,
    ) {
        // Deduplicate the ranking (rankings never repeat items in practice).
        let mut seen = HashSet::new();
        let ranking: Vec<u32> =
            ranking.into_iter().filter(|x| seen.insert(*x)).collect();
        let r = ranked(&ranking);
        let t: HashSet<ItemId> = test.iter().map(|&i| ItemId(i)).collect();
        let brute = ranking
            .iter()
            .take(n)
            .filter(|&&i| test.contains(&i))
            .count() as f64 / test.len() as f64;
        prop_assert!((recall_at_n(&r, &t, n) - brute).abs() < 1e-12);
    }

    /// A perfect prefix ranking has NDCG exactly 1.
    #[test]
    fn perfect_ranking_ndcg_one(test in proptest::collection::hash_set(0u32..40, 1..10)) {
        let mut ids: Vec<u32> = test.iter().copied().collect();
        ids.sort_unstable();
        let extra: Vec<u32> = (40..60).collect();
        let mut full = ids.clone();
        full.extend(extra);
        let t: HashSet<ItemId> = test.into_iter().map(ItemId).collect();
        let v = ndcg_at_n(&ranked(&full), &t, full.len());
        prop_assert!((v - 1.0).abs() < 1e-9, "ndcg {}", v);
    }

    /// top_n_indices agrees with a full sort by score descending, ties
    /// broken by ascending index (a stable sort keeps index order on ties).
    #[test]
    fn top_n_matches_sort(
        scores in proptest::collection::vec(-4i32..4, 1..40),
        n in 1usize..20,
    ) {
        let scores: Vec<f32> = scores.iter().map(|&s| s as f32 * 0.5).collect();
        let got = top_n_indices(&scores, n);
        let mut idx: Vec<usize> = (0..scores.len()).collect();
        idx.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
        idx.truncate(n);
        prop_assert_eq!(got, idx);
    }

    /// Swapping a hit earlier in the ranking never decreases NDCG.
    #[test]
    fn ndcg_rewards_promotion(
        pos in 1usize..10,
        test_item in 0u32..5,
    ) {
        let mut ids: Vec<u32> = (10..25).collect(); // all misses
        let pos = pos.min(ids.len() - 1);
        ids.insert(pos, test_item);
        let t: HashSet<ItemId> = [ItemId(test_item)].into_iter().collect();
        let later = ndcg_at_n(&ranked(&ids), &t, ids.len());
        // Promote the hit to the front.
        let mut promoted = ids.clone();
        promoted.remove(pos);
        promoted.insert(0, test_item);
        let earlier = ndcg_at_n(&ranked(&promoted), &t, promoted.len());
        prop_assert!(earlier >= later - 1e-12);
    }
}

proptest! {
    // Enough cases to hit the edges: k = 0, len = 0, k > len, no entries.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// top_n_sparse ranks exactly like top_n_indices on the densified
    /// vector: same indices in the same order, bitwise-same scores, for any
    /// entry order.
    #[test]
    fn top_n_sparse_matches_dense(
        len in 0usize..40,
        raw in proptest::collection::vec((0u32..48, 0u8..11), 0..40),
        k in 0usize..50,
        shuffle in 0u64..u64::MAX,
    ) {
        let mut dense = vec![0.0f32; len];
        let mut named = vec![false; len];
        let mut entries: Vec<(u32, f32)> = Vec::new();
        for (i, code) in raw {
            let at = i as usize;
            if at < len && !named[at] {
                named[at] = true;
                dense[at] = edge_score(code);
                entries.push((i, dense[at]));
            }
        }
        entries.sort_by_key(|&(i, _)| (u64::from(i) ^ shuffle).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let want: Vec<(usize, u32)> =
            top_n_indices(&dense, k).into_iter().map(|i| (i, dense[i].to_bits())).collect();
        let got: Vec<(usize, u32)> = top_n_sparse(len, &entries, k)
            .into_iter()
            .map(|(i, s)| (i as usize, s.to_bits()))
            .collect();
        prop_assert_eq!(got, want);
    }
}
