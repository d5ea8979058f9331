//! Compressed sparse row adjacency over the CKG.
//!
//! The CSR stores *both directions* of every base triple: for a base edge
//! `(h, r, t)` it holds `(h, r, t)` and `(t, reverse(r), h)`, following the
//! paper's Section IV-B ("we introduce reverse relations ... in the CKG").
//! Relation ids for reverse edges are `r + n_base_relations`.

use crate::ids::{index_u32, NodeId, RelId};
use crate::triple::Triple;

/// A CSR capacity violation: the graph no longer fits the `u32` id and
/// offset spaces the adjacency arrays are built on.
///
/// This is the typed form of the guards in [`Csr::check_capacity`], exposed
/// so segment/shard boundaries (and dataset loaders) can turn an oversized
/// shard into a recoverable error instead of a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CapacityError {
    /// More nodes than `u32` node ids can address.
    NodeSpace {
        /// The offending node count.
        n_nodes: usize,
    },
    /// More base triples than the `u32` offset arithmetic can hold (each
    /// triple stores a forward and a reverse directed edge).
    OffsetSpace {
        /// The offending base-triple count.
        n_triples: usize,
    },
}

impl std::fmt::Display for CapacityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CapacityError::NodeSpace { n_nodes } => {
                write!(f, "CSR capacity: {n_nodes} nodes exceeds the u32 node-id space")
            }
            CapacityError::OffsetSpace { n_triples } => write!(
                f,
                "CSR capacity: {n_triples} triples need {} directed edges, \
                 which exceeds the u32 offset space",
                2u64 * n_triples as u64,
            ),
        }
    }
}

impl std::error::Error for CapacityError {}

/// One out-edge in the CSR: `(relation, tail node)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutEdge {
    /// Relation id (may be a reverse relation).
    pub rel: RelId,
    /// Tail node.
    pub tail: NodeId,
}

/// CSR adjacency with reverse edges materialized.
#[derive(Clone, Debug)]
pub struct Csr {
    offsets: Vec<u32>,
    rels: Vec<u32>,
    tails: Vec<u32>,
    n_base_relations: u32,
}

impl Csr {
    /// Builds the CSR from base triples over `n_nodes` nodes with
    /// `n_base_relations` base relation types. Reverse edges are added
    /// automatically.
    ///
    /// # Panics
    /// Panics if any triple references an out-of-range node or relation, or
    /// if the edge count would overflow the `u32` offset space
    /// (see [`Csr::check_capacity`]).
    pub fn build(n_nodes: usize, n_base_relations: u32, triples: &[Triple]) -> Self {
        Self::check_capacity(n_nodes, triples.len());
        Self::build_unchecked(n_nodes, n_base_relations, triples)
    }

    /// [`Csr::build`] with the capacity guards reported as a typed
    /// [`CapacityError`] instead of a panic — the entry point for segment
    /// and shard boundaries, where an oversized shard must fail loudly but
    /// recoverably (it still panics on out-of-range node/relation ids,
    /// which are caller bugs rather than data-scale limits).
    pub fn try_build(
        n_nodes: usize,
        n_base_relations: u32,
        triples: &[Triple],
    ) -> Result<Self, CapacityError> {
        Self::try_check_capacity(n_nodes, triples.len())?;
        Ok(Self::build_unchecked(n_nodes, n_base_relations, triples))
    }

    fn build_unchecked(n_nodes: usize, n_base_relations: u32, triples: &[Triple]) -> Self {
        let mut degree = vec![0u32; n_nodes];
        for t in triples {
            assert!((t.head.0 as usize) < n_nodes, "head {:?} out of range", t.head);
            assert!((t.tail.0 as usize) < n_nodes, "tail {:?} out of range", t.tail);
            assert!(t.rel.0 < n_base_relations, "relation {:?} out of range", t.rel);
            degree[t.head.0 as usize] += 1;
            degree[t.tail.0 as usize] += 1;
        }
        // check_capacity bounds the degree sum by u32::MAX, so the running
        // offset accumulator below cannot overflow.
        let mut offsets = Vec::with_capacity(n_nodes + 1);
        let mut running = 0u32;
        offsets.push(running);
        for &d in &degree {
            running += d;
            offsets.push(running);
        }
        let total = running as usize;
        let mut rels = vec![0u32; total];
        let mut tails = vec![0u32; total];
        let mut cursor: Vec<u32> = offsets[..n_nodes].to_vec();
        for t in triples {
            let h = t.head.0 as usize;
            let slot = cursor[h] as usize;
            rels[slot] = t.rel.0;
            tails[slot] = t.tail.0;
            cursor[h] += 1;

            let tl = t.tail.0 as usize;
            let slot = cursor[tl] as usize;
            rels[slot] = t.rel.0 + n_base_relations;
            tails[slot] = t.head.0;
            cursor[tl] += 1;
        }
        Self { offsets, rels, tails, n_base_relations }
    }

    /// Asserts that a CSR over `n_nodes` nodes and `n_triples` base triples
    /// fits the `u32` offset/cursor arithmetic used by [`Csr::build`]: each
    /// triple stores a forward and a reverse edge, so `2 * n_triples` must
    /// not exceed `u32::MAX`, and node ids must fit a `u32`.
    ///
    /// # Panics
    /// Panics with a message naming the offending quantity when either bound
    /// is exceeded.
    pub fn check_capacity(n_nodes: usize, n_triples: usize) {
        if let Err(e) = Self::try_check_capacity(n_nodes, n_triples) {
            // audit: allow(no-panic) — the panicking guard is the documented
            // contract of `build`; recoverable callers use `try_build`.
            panic!("{e}");
        }
    }

    /// [`Csr::check_capacity`] returning a typed [`CapacityError`] instead
    /// of panicking. Accepts exactly the same boundary: up to `u32::MAX`
    /// nodes and `u32::MAX / 2` base triples.
    pub fn try_check_capacity(n_nodes: usize, n_triples: usize) -> Result<(), CapacityError> {
        if n_nodes > u32::MAX as usize {
            return Err(CapacityError::NodeSpace { n_nodes });
        }
        if n_triples > (u32::MAX / 2) as usize {
            return Err(CapacityError::OffsetSpace { n_triples });
        }
        Ok(())
    }

    /// Assembles a CSR directly from its raw arrays **without validation**.
    ///
    /// Intended for tests and the audit tooling, which need to construct
    /// deliberately corrupt instances and check that [`Csr::validate`]
    /// rejects them. Production code should use [`Csr::build`].
    pub fn from_raw_parts(
        offsets: Vec<u32>,
        rels: Vec<u32>,
        tails: Vec<u32>,
        n_base_relations: u32,
    ) -> Self {
        Self { offsets, rels, tails, n_base_relations }
    }

    /// Checks the structural invariants [`Csr::build`] guarantees:
    ///
    /// - `offsets` is non-empty, starts at 0, is monotone non-decreasing,
    ///   and ends exactly at the edge-array length;
    /// - `rels` and `tails` have equal length;
    /// - every tail is a valid node id and every relation id is a base or
    ///   reverse relation (self-loops live only in layered graphs);
    /// - every edge `(h, r, t)` has its reverse `(t, r ± n_base, h)` stored
    ///   with the same multiplicity.
    ///
    /// Returns `Err` describing the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.is_empty() {
            return Err("offsets array is empty (needs at least [0])".to_string());
        }
        if self.offsets[0] != 0 {
            return Err(format!("offsets[0] is {}, expected 0", self.offsets[0]));
        }
        for w in 0..self.offsets.len() - 1 {
            if self.offsets[w] > self.offsets[w + 1] {
                return Err(format!(
                    "offsets not monotone at node {w}: {} > {}",
                    self.offsets[w],
                    self.offsets[w + 1]
                ));
            }
        }
        let total = self.offsets[self.offsets.len() - 1] as usize;
        if total != self.rels.len() || self.rels.len() != self.tails.len() {
            return Err(format!(
                "edge array length mismatch: offsets end at {total}, \
                 rels has {}, tails has {}",
                self.rels.len(),
                self.tails.len()
            ));
        }
        let n_nodes = self.n_nodes();
        let n_base = self.n_base_relations;
        for (k, (&rel, &tail)) in self.rels.iter().zip(&self.tails).enumerate() {
            if (tail as usize) >= n_nodes {
                return Err(format!("edge {k}: tail {tail} out of range for {n_nodes} nodes"));
            }
            if rel >= 2 * n_base {
                return Err(format!(
                    "edge {k}: relation {rel} out of range \
                     ({} base + {} reverse relations)",
                    n_base, n_base
                ));
            }
        }
        // Reverse pairing: count every directed edge, then require each
        // (h, r, t) to appear exactly as often as (t, reverse(r), h). A
        // BTreeMap keeps the check (and the first error reported) a pure
        // function of the graph, not of hash iteration order.
        let mut counts: std::collections::BTreeMap<(u32, u32, u32), u32> =
            std::collections::BTreeMap::new();
        for h in 0..n_nodes {
            let (start, end) = (self.offsets[h] as usize, self.offsets[h + 1] as usize);
            for k in start..end {
                *counts
                    .entry((index_u32(h, "node id"), self.rels[k], self.tails[k]))
                    .or_insert(0) += 1;
            }
        }
        for (&(h, r, t), &n) in &counts {
            let rev = if r < n_base { r + n_base } else { r - n_base };
            let n_rev = counts.get(&(t, rev, h)).copied().unwrap_or(0);
            if n != n_rev {
                return Err(format!(
                    "edge ({h}, {r}, {t}) appears {n} time(s) but its reverse \
                     ({t}, {rev}, {h}) appears {n_rev} time(s)"
                ));
            }
        }
        Ok(())
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges stored (twice the base triple count).
    pub fn n_edges(&self) -> usize {
        self.rels.len()
    }

    /// Number of base relation types (excluding reverse and self-loop ids).
    pub fn n_base_relations(&self) -> u32 {
        self.n_base_relations
    }

    /// Relation id used for self-loop edges (`2 * n_base`).
    pub fn self_loop_rel(&self) -> RelId {
        RelId(2 * self.n_base_relations)
    }

    /// Total number of relation ids including reverses and the self-loop.
    pub fn n_relations_total(&self) -> u32 {
        2 * self.n_base_relations + 1
    }

    /// Out-degree of a node (counting reverse edges).
    pub fn degree(&self, node: NodeId) -> usize {
        let n = node.0 as usize;
        (self.offsets[n + 1] - self.offsets[n]) as usize
    }

    /// Iterates over the out-edges of a node.
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = OutEdge> + '_ {
        let n = node.0 as usize;
        let (start, end) = (self.offsets[n] as usize, self.offsets[n + 1] as usize);
        (start..end).map(move |k| OutEdge { rel: RelId(self.rels[k]), tail: NodeId(self.tails[k]) })
    }

    /// True if `head` has any out-edge to `tail` with relation `rel`.
    pub fn has_edge(&self, head: NodeId, rel: RelId, tail: NodeId) -> bool {
        self.out_edges(head).any(|e| e.rel == rel && e.tail == tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Csr {
        // 4 nodes, 2 base relations, 3 triples.
        let triples = vec![
            Triple::new(NodeId(0), RelId(0), NodeId(1)),
            Triple::new(NodeId(1), RelId(1), NodeId(2)),
            Triple::new(NodeId(0), RelId(1), NodeId(3)),
        ];
        Csr::build(4, 2, &triples)
    }

    #[test]
    fn edges_and_reverses_present() {
        let csr = toy();
        assert_eq!(csr.n_edges(), 6);
        assert!(csr.has_edge(NodeId(0), RelId(0), NodeId(1)));
        // reverse of rel 0 is rel 2
        assert!(csr.has_edge(NodeId(1), RelId(2), NodeId(0)));
        assert!(csr.has_edge(NodeId(2), RelId(3), NodeId(1)));
    }

    #[test]
    fn degrees_count_both_directions() {
        let csr = toy();
        assert_eq!(csr.degree(NodeId(0)), 2);
        assert_eq!(csr.degree(NodeId(1)), 2);
        assert_eq!(csr.degree(NodeId(2)), 1);
        assert_eq!(csr.degree(NodeId(3)), 1);
    }

    #[test]
    fn relation_id_space() {
        let csr = toy();
        assert_eq!(csr.self_loop_rel(), RelId(4));
        assert_eq!(csr.n_relations_total(), 5);
    }

    #[test]
    fn out_edges_complete() {
        let csr = toy();
        let edges: Vec<OutEdge> = csr.out_edges(NodeId(0)).collect();
        assert_eq!(edges.len(), 2);
        assert!(edges.contains(&OutEdge { rel: RelId(0), tail: NodeId(1) }));
        assert!(edges.contains(&OutEdge { rel: RelId(1), tail: NodeId(3) }));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_node_panics() {
        let triples = vec![Triple::new(NodeId(9), RelId(0), NodeId(0))];
        let _ = Csr::build(2, 1, &triples);
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 offset space")]
    fn capacity_overflow_panics_with_clear_message() {
        // One triple beyond the 2 * n_triples <= u32::MAX budget must trip
        // the guard before any u32 offset arithmetic can wrap.
        Csr::check_capacity(10, (u32::MAX / 2) as usize + 1);
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 node-id space")]
    fn node_count_overflow_panics_with_clear_message() {
        Csr::check_capacity(u32::MAX as usize + 1, 0);
    }

    #[test]
    fn capacity_accepts_boundary() {
        Csr::check_capacity(u32::MAX as usize, (u32::MAX / 2) as usize);
    }

    #[test]
    fn try_check_capacity_accepts_exact_u32_boundary() {
        assert_eq!(Csr::try_check_capacity(u32::MAX as usize, (u32::MAX / 2) as usize), Ok(()));
    }

    #[test]
    fn try_check_capacity_rejects_one_past_node_boundary() {
        let err = Csr::try_check_capacity(u32::MAX as usize + 1, 0).unwrap_err();
        assert_eq!(err, CapacityError::NodeSpace { n_nodes: u32::MAX as usize + 1 });
        assert!(err.to_string().contains("exceeds the u32 node-id space"), "{err}");
    }

    #[test]
    fn try_check_capacity_rejects_one_past_triple_boundary() {
        let n = (u32::MAX / 2) as usize + 1;
        let err = Csr::try_check_capacity(10, n).unwrap_err();
        assert_eq!(err, CapacityError::OffsetSpace { n_triples: n });
        assert!(err.to_string().contains("exceeds the u32 offset space"), "{err}");
    }

    #[test]
    fn try_build_matches_build_on_valid_input() {
        let triples = vec![
            Triple::new(NodeId(0), RelId(0), NodeId(1)),
            Triple::new(NodeId(1), RelId(1), NodeId(2)),
        ];
        let a = Csr::build(3, 2, &triples);
        let b = Csr::try_build(3, 2, &triples).unwrap();
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.rels, b.rels);
        assert_eq!(a.tails, b.tails);
        assert_eq!(b.validate(), Ok(()));
    }

    #[test]
    fn validate_accepts_built_csr() {
        assert_eq!(toy().validate(), Ok(()));
        assert_eq!(Csr::build(3, 2, &[]).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_nonmonotone_offsets() {
        let good = toy();
        let mut offsets = good.offsets.clone();
        offsets[1] = offsets[2] + 1;
        let bad = Csr::from_raw_parts(offsets, good.rels.clone(), good.tails.clone(), 2);
        let err = bad.validate().unwrap_err();
        assert!(err.contains("not monotone"), "{err}");
    }

    #[test]
    fn validate_rejects_out_of_range_tail() {
        let good = toy();
        let mut tails = good.tails.clone();
        tails[0] = 99;
        let bad = Csr::from_raw_parts(good.offsets.clone(), good.rels.clone(), tails, 2);
        let err = bad.validate().unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn validate_rejects_missing_reverse_edge() {
        let good = toy();
        // Rewrite one edge's relation so its reverse no longer matches.
        let mut rels = good.rels.clone();
        rels[0] = if rels[0] == 0 { 1 } else { 0 };
        let bad = Csr::from_raw_parts(good.offsets.clone(), rels, good.tails.clone(), 2);
        let err = bad.validate().unwrap_err();
        assert!(err.contains("reverse"), "{err}");
    }

    #[test]
    fn validate_rejects_length_mismatch() {
        let good = toy();
        let mut rels = good.rels.clone();
        rels.pop();
        let bad = Csr::from_raw_parts(good.offsets.clone(), rels, good.tails.clone(), 2);
        let err = bad.validate().unwrap_err();
        assert!(err.contains("length mismatch"), "{err}");
    }
}
