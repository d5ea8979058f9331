//! Segmented (sharded) CKG substrate: out-of-core scale beyond one CSR.
//!
//! Every profile so far fit a single in-memory [`Csr`] under its hard `u32`
//! capacity guards. This module splits the CKG into **segments** — edge-closed
//! node subsets, each with its own small local CSR — and groups segments into
//! **shards** routed by a hash of the user id. Addressing across the segment
//! boundary is `u64`-capable ([`SegmentAddr`], per-shard node/edge totals), so
//! the aggregate graph can exceed the `u32` spaces any one CSR is limited to.
//!
//! ## Determinism contract
//!
//! For a user whose subgraph is segment-local, rankings are bitwise identical
//! at any shard count and identical to the unsharded path:
//!
//! - a segment is **edge-closed** (every out-edge of a segment node stays in
//!   the segment), so degrees and out-edge sets match the parent graph;
//! - local node ids are assigned in ascending global-id order (a monotone
//!   renumbering), so the ascending-id iteration of the PPR power kernel and
//!   the sparsified entry order are preserved;
//! - [`Segment::from_parent_rows`] copies each node's CSR row *in parent
//!   order*, and [`SegmentView`] replays that order in global ids, so layering
//!   candidate order — and therefore every downstream float accumulation —
//!   matches the unsharded CSR edge-for-edge.
//!
//! `tests/shard_differential.rs` pins this end to end at shard counts
//! {1, 2, 8}.

use std::sync::Arc;

use crate::ckg::Ckg;
use crate::csr::{CapacityError, Csr, OutEdge};
use crate::ids::{index_u32, NodeId, UserId};
use crate::triple::Triple;
use crate::view::GraphView;

/// Number of fixed routing buckets user ids hash into. Shards own whole
/// buckets (`bucket % n_shards`), so any shard count that divides 512 —
/// in particular {1, 2, 8} — keeps every bucket atomic, which is what makes
/// rankings invariant under resharding.
pub const N_ROUTE_BUCKETS: u32 = 512;

/// The SplitMix64 avalanche finalizer: every input bit affects every output
/// bit. It is the one 64-bit mixer of the workspace: routing buckets (loads
/// stay balanced even for dense sequential user ids), A/B bucketing, fault
/// draws and the per-user training RNG streams all hash through it.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fixed routing bucket of a user id (`0..N_ROUTE_BUCKETS`). A pure
/// function of the user id alone — the serving router, the streaming scale
/// generator, and the differential tests must all agree on it.
pub fn route_bucket(user: u32) -> u32 {
    // The modulus is a power of two; mix64's low bits are fully avalanched.
    // audit: allow(no-lossy-cast) — masked to 9 bits, truncation is unreachable
    (mix64(user as u64) & (N_ROUTE_BUCKETS as u64 - 1)) as u32
}

/// The shard that serves `user` when the bucket space is folded onto
/// `n_shards` shards.
pub fn shard_of(user: u32, n_shards: usize) -> usize {
    if n_shards == 0 {
        return 0;
    }
    route_bucket(user) as usize % n_shards
}

/// A `u64` address naming one node across the segment boundary: the segment
/// index in the high 32 bits, the local node id in the low 32. The packed
/// space is `u64`-capable by construction — `2^32` segments of `2^32` local
/// nodes — even though each segment's own CSR stays within `u32` ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentAddr(u64);

impl SegmentAddr {
    /// Packs a (segment, local node) pair.
    pub fn new(segment: u32, local: u32) -> Self {
        Self(((segment as u64) << 32) | local as u64)
    }

    /// The segment index.
    pub fn segment(self) -> u32 {
        // audit: allow(no-lossy-cast) — high-32 extraction of a packed u64, exact by construction
        (self.0 >> 32) as u32
    }

    /// The node id local to the segment.
    pub fn local(self) -> u32 {
        // audit: allow(no-lossy-cast) — masked to the low 32 bits, truncation is unreachable
        (self.0 & 0xFFFF_FFFF) as u32
    }

    /// The raw packed `u64`.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Errors raised while building segments or sharding a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// A segment outgrew the `u32` spaces of its local CSR.
    Capacity(CapacityError),
    /// The input does not describe a valid segment (unsorted node list,
    /// an edge leaving the segment, an unknown node in a triple, ...).
    Invalid(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Capacity(e) => write!(f, "shard capacity: {e}"),
            ShardError::Invalid(msg) => write!(f, "invalid segment: {msg}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<CapacityError> for ShardError {
    fn from(e: CapacityError) -> Self {
        ShardError::Capacity(e)
    }
}

/// One edge-closed node subset of a CKG with its own local CSR.
///
/// `nodes` maps local id → global id and is strictly ascending, so the
/// local↔global renumbering is monotone (the property the PPR and layering
/// determinism arguments rest on). The local CSR stores local ids;
/// [`SegmentView`] lifts it back into the global id space.
#[derive(Clone, Debug)]
pub struct Segment {
    nodes: Vec<u32>,
    csr: Csr,
}

impl Segment {
    /// Builds a segment by copying the rows of `nodes` out of a parent CSR,
    /// preserving per-node edge order exactly.
    ///
    /// `nodes` must be strictly ascending global node ids, and must be
    /// edge-closed in `parent`: every out-edge of a listed node must point
    /// at a listed node.
    pub fn from_parent_rows(parent: &Csr, nodes: Vec<u32>) -> Result<Self, ShardError> {
        if !nodes.windows(2).all(|w| w[0] < w[1]) {
            return Err(ShardError::Invalid("segment node list is not strictly ascending".into()));
        }
        if let Some(&last) = nodes.last() {
            if (last as usize) >= parent.n_nodes() {
                return Err(ShardError::Invalid(format!(
                    "segment node {last} out of range for {} parent nodes",
                    parent.n_nodes()
                )));
            }
        }
        let mut total_edges = 0usize;
        for &g in &nodes {
            total_edges += parent.degree(NodeId(g));
        }
        // Each directed edge pair came from one base triple; the typed guard
        // keeps the segment boundary recoverable rather than asserting.
        Csr::try_check_capacity(nodes.len(), total_edges / 2)?;

        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        let mut rels = Vec::with_capacity(total_edges);
        let mut tails = Vec::with_capacity(total_edges);
        offsets.push(0u32);
        for &g in &nodes {
            let mut leak: Option<u32> = None;
            parent.visit_out_edges(NodeId(g), |e| match nodes.binary_search(&e.tail.0) {
                Ok(local_tail) => {
                    rels.push(e.rel.0);
                    tails.push(index_u32(local_tail, "segment-local node id"));
                }
                Err(_) => leak = Some(e.tail.0),
            });
            if let Some(t) = leak {
                return Err(ShardError::Invalid(format!(
                    "segment is not edge-closed: node {g} has an edge to {t} outside the segment"
                )));
            }
            offsets.push(index_u32(rels.len(), "segment edge offset"));
        }
        let n_base = parent.n_base_relations();
        let csr = Csr::from_raw_parts(offsets, rels, tails, n_base);
        debug_assert_eq!(csr.validate(), Ok(()), "segment CSR violates its invariants");
        Ok(Self { nodes, csr })
    }

    /// Builds a segment directly from base triples expressed in **global**
    /// node ids (the streaming dataset path, where no parent CSR ever
    /// exists). Triple order is preserved, so two generators emitting the
    /// same triple sequence produce bitwise-identical segments.
    pub fn from_global_triples(
        nodes: Vec<u32>,
        n_base_relations: u32,
        triples: &[Triple],
    ) -> Result<Self, ShardError> {
        if !nodes.windows(2).all(|w| w[0] < w[1]) {
            return Err(ShardError::Invalid("segment node list is not strictly ascending".into()));
        }
        let local = |g: NodeId| -> Result<NodeId, ShardError> {
            match nodes.binary_search(&g.0) {
                Ok(l) => Ok(NodeId(index_u32(l, "segment-local node id"))),
                Err(_) => Err(ShardError::Invalid(format!(
                    "triple references node {} outside the segment",
                    g.0
                ))),
            }
        };
        let mut local_triples = Vec::with_capacity(triples.len());
        for t in triples {
            local_triples.push(Triple::new(local(t.head)?, t.rel, local(t.tail)?));
        }
        let csr = Csr::try_build(nodes.len(), n_base_relations, &local_triples)?;
        Ok(Self { nodes, csr })
    }

    /// Number of nodes in the segment.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed edges in the segment's local CSR.
    pub fn n_edges(&self) -> usize {
        self.csr.n_edges()
    }

    /// The ascending global node ids of the segment (local id → global id).
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// The local CSR adjacency (local node ids).
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// The local id of a global node, if it belongs to this segment.
    pub fn local_of(&self, global: NodeId) -> Option<u32> {
        match self.nodes.binary_search(&global.0) {
            Ok(l) => Some(index_u32(l, "segment-local node id")),
            Err(_) => None,
        }
    }

    /// The global node id of a local id.
    ///
    /// # Panics
    /// Panics if `local` is out of range.
    pub fn global_of(&self, local: u32) -> NodeId {
        NodeId(self.nodes[local as usize])
    }

    /// The users of this segment, given the global `users | items | entities`
    /// layout (global user ids are exactly the ids below `n_users`).
    pub fn users(&self, n_users: u32) -> impl Iterator<Item = UserId> + '_ {
        self.nodes.iter().take_while(move |&&g| g < n_users).map(|&g| UserId(g))
    }

    /// Approximate resident bytes of the segment (node map + CSR arrays).
    pub fn approx_bytes(&self) -> usize {
        self.nodes.len() * 4 + (self.csr.n_nodes() + 1) * 4 + self.csr.n_edges() * 8
    }

    /// A [`GraphView`] over this segment in **global** node ids, suitable
    /// for the unchanged layering code. `n_global_nodes` is the full graph's
    /// node count (the view's nominal id space).
    pub fn view(&self, n_global_nodes: usize) -> SegmentView<'_> {
        SegmentView { segment: self, n_global_nodes }
    }
}

/// A global-id [`GraphView`] backed by one segment's local CSR.
///
/// Nodes outside the segment have degree 0 and no edges — consistent with
/// the segment being edge-closed (they are unreachable from inside). For
/// segment nodes the out-edge sequence equals the parent graph's row order
/// with tails translated back to global ids, so layered graphs built over
/// this view are byte-identical to ones built over the unsharded CSR.
pub struct SegmentView<'a> {
    segment: &'a Segment,
    n_global_nodes: usize,
}

impl GraphView for SegmentView<'_> {
    fn n_nodes(&self) -> usize {
        self.n_global_nodes
    }

    fn n_base_relations(&self) -> u32 {
        self.segment.csr.n_base_relations()
    }

    fn degree(&self, node: NodeId) -> usize {
        match self.segment.local_of(node) {
            Some(l) => self.segment.csr.degree(NodeId(l)),
            None => 0,
        }
    }

    fn visit_out_edges<F: FnMut(OutEdge)>(&self, node: NodeId, mut visit: F) {
        if let Some(l) = self.segment.local_of(node) {
            self.segment.csr.visit_out_edges(NodeId(l), |e| {
                visit(OutEdge { rel: e.rel, tail: self.segment.global_of(e.tail.0) });
            });
        }
    }
}

/// The global `users | items | entities` layout shared by every segment of
/// one sharded graph (counts of the *whole* graph, not one segment).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentLayout {
    /// Total number of users.
    pub n_users: u32,
    /// Total number of items.
    pub n_items: u32,
    /// Total number of pure KG entities.
    pub n_entities: u32,
}

impl SegmentLayout {
    /// Total node count of the global graph.
    pub fn n_nodes(&self) -> usize {
        self.n_users as usize + self.n_items as usize + self.n_entities as usize
    }

    /// If `n` is an item node under this layout, its item index.
    pub fn item_index(&self, n: NodeId) -> Option<u32> {
        if n.0 >= self.n_users && n.0 < self.n_users + self.n_items {
            Some(n.0 - self.n_users)
        } else {
            None
        }
    }
}

/// A CKG split into edge-closed segments, grouped into shards by user-hash
/// routing. Segments are `Arc`-shared: a connected component whose users
/// hash into several shards is held once and pinned by each of them.
#[derive(Clone, Debug)]
pub struct ShardedCkg {
    layout: SegmentLayout,
    n_base_relations: u32,
    segments: Vec<Arc<Segment>>,
    shards: Vec<Vec<Arc<Segment>>>,
}

impl ShardedCkg {
    /// Splits an in-memory CKG into its connected components and groups them
    /// into `n_shards` shards: shard `s` holds every component containing at
    /// least one user with `shard_of(user, n_shards) == s`.
    ///
    /// Components are discovered in ascending node order, so the segment
    /// list — and every per-segment CSR — is a pure function of the CKG,
    /// independent of the shard count.
    pub fn from_ckg(ckg: &Ckg, n_shards: usize) -> Result<Self, ShardError> {
        if n_shards == 0 {
            return Err(ShardError::Invalid("shard count must be at least 1".into()));
        }
        let csr = ckg.csr();
        let n = csr.n_nodes();
        // Union-find with path halving; deterministic because edges are
        // scanned in ascending (node, row) order.
        let mut parent: Vec<u32> = (0..index_u32(n, "node count")).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        for h in 0..n {
            let h32 = index_u32(h, "node id");
            csr.visit_out_edges(NodeId(h32), |e| {
                let a = find(&mut parent, h32);
                let b = find(&mut parent, e.tail.0);
                if a != b {
                    // Union by smaller root id keeps roots canonical.
                    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                    parent[hi as usize] = lo;
                }
            });
        }
        // Group nodes by root, components ordered by their smallest member.
        let mut component_of: Vec<u32> = vec![u32::MAX; n];
        let mut members: Vec<Vec<u32>> = Vec::new();
        for x in 0..n {
            let x32 = index_u32(x, "node id");
            let root = find(&mut parent, x32) as usize;
            let c = if component_of[root] == u32::MAX {
                let c = index_u32(members.len(), "component id");
                component_of[root] = c;
                members.push(Vec::new());
                c
            } else {
                component_of[root]
            };
            members[c as usize].push(x32);
        }
        let mut segments = Vec::with_capacity(members.len());
        for nodes in members {
            segments.push(Arc::new(Segment::from_parent_rows(csr, nodes)?));
        }
        let layout = ckg.layout();
        let mut shards: Vec<Vec<Arc<Segment>>> = vec![Vec::new(); n_shards];
        for seg in &segments {
            let mut owned = vec![false; n_shards];
            for u in seg.users(layout.n_users) {
                owned[shard_of(u.0, n_shards)] = true;
            }
            for (s, own) in owned.iter().enumerate() {
                if *own {
                    shards[s].push(Arc::clone(seg));
                }
            }
        }
        Ok(Self { layout, n_base_relations: csr.n_base_relations(), segments, shards })
    }

    /// Assembles a sharded graph from pre-built segments (the streaming
    /// dataset path). `shards[s]` lists the segments shard `s` pins; the
    /// flat segment list indexes [`SegmentAddr::segment`].
    pub fn from_segments(
        layout: SegmentLayout,
        n_base_relations: u32,
        segments: Vec<Arc<Segment>>,
        shards: Vec<Vec<Arc<Segment>>>,
    ) -> Self {
        Self { layout, n_base_relations, segments, shards }
    }

    /// The global node layout.
    pub fn layout(&self) -> SegmentLayout {
        self.layout
    }

    /// Number of base relation types (shared by every segment).
    pub fn n_base_relations(&self) -> u32 {
        self.n_base_relations
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// All segments, indexed by [`SegmentAddr::segment`].
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// The segments pinned by shard `s`.
    pub fn shard_segments(&self, s: usize) -> &[Arc<Segment>] {
        &self.shards[s]
    }

    /// Total nodes across all segments, as a `u64` (segments of a
    /// from-components split partition the graph; aggregates may exceed any
    /// single CSR's `u32` capacity in the streaming path).
    pub fn total_nodes(&self) -> u64 {
        self.segments.iter().map(|s| s.n_nodes() as u64).sum()
    }

    /// Total directed edges across all segments, as a `u64`.
    pub fn total_edges(&self) -> u64 {
        self.segments.iter().map(|s| s.n_edges() as u64).sum()
    }

    /// Resolves a global node id to its `u64` segment address, scanning the
    /// flat segment list (segments partition the node space in both
    /// construction paths, so at most one can match).
    pub fn locate(&self, node: NodeId) -> Option<SegmentAddr> {
        for (idx, seg) in self.segments.iter().enumerate() {
            if let Some(local) = seg.local_of(node) {
                return Some(SegmentAddr::new(index_u32(idx, "segment id"), local));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckg::{CkgBuilder, KgNode};
    use crate::ids::{EntityId, ItemId, RelId};
    use crate::layering::{build_layered_graph, KeepAll, LayeringOptions};

    /// Two disconnected islands: {u0, i0, e0} and {u1, i1, e1}.
    fn two_islands() -> Ckg {
        let mut b = CkgBuilder::new(2, 2, 2, 1);
        b.interact(UserId(0), ItemId(0));
        b.kg_triple(KgNode::Item(ItemId(0)), 0, KgNode::Entity(EntityId(0)));
        b.interact(UserId(1), ItemId(1));
        b.kg_triple(KgNode::Item(ItemId(1)), 0, KgNode::Entity(EntityId(1)));
        b.build()
    }

    #[test]
    fn segment_addr_round_trips() {
        let a = SegmentAddr::new(7, 42);
        assert_eq!(a.segment(), 7);
        assert_eq!(a.local(), 42);
        assert_eq!(SegmentAddr::new(u32::MAX, u32::MAX).raw(), u64::MAX);
    }

    #[test]
    fn route_bucket_is_stable_and_in_range() {
        for u in 0..10_000u32 {
            let b = route_bucket(u);
            assert!(b < N_ROUTE_BUCKETS);
            assert_eq!(b, route_bucket(u), "routing must be a pure function");
        }
        // Folding buckets onto divisors of 512 keeps buckets atomic.
        for u in 0..10_000u32 {
            let b = route_bucket(u) as usize;
            for n in [1usize, 2, 8] {
                assert_eq!(shard_of(u, n), b % n);
            }
        }
    }

    #[test]
    fn segment_view_preserves_parent_edge_order() {
        let ckg = two_islands();
        let sharded = ShardedCkg::from_ckg(&ckg, 1).unwrap();
        for seg in sharded.segments() {
            let view = seg.view(ckg.n_nodes());
            for &g in seg.nodes() {
                let node = NodeId(g);
                let direct: Vec<OutEdge> = ckg.csr().out_edges(node).collect();
                let mut via_view = Vec::new();
                view.visit_out_edges(node, |e| via_view.push(e));
                assert_eq!(via_view, direct, "edge order diverged at node {g}");
                assert_eq!(view.degree(node), ckg.csr().degree(node));
            }
        }
    }

    #[test]
    fn components_split_into_segments() {
        let ckg = two_islands();
        let sharded = ShardedCkg::from_ckg(&ckg, 2).unwrap();
        assert_eq!(sharded.segments().len(), 2);
        assert_eq!(sharded.total_nodes(), ckg.n_nodes() as u64);
        assert_eq!(sharded.total_edges(), ckg.csr().n_edges() as u64);
        // Each user's segment is found via its u64 address.
        let a0 = sharded.locate(NodeId(0)).unwrap();
        let a1 = sharded.locate(NodeId(1)).unwrap();
        assert_ne!(a0.segment(), a1.segment());
    }

    #[test]
    fn layered_graphs_match_unsharded_bitwise() {
        let ckg = two_islands();
        let sharded = ShardedCkg::from_ckg(&ckg, 2).unwrap();
        let opts = LayeringOptions::new(3);
        for u in 0..2u32 {
            let root = NodeId(u);
            let addr = sharded.locate(root).unwrap();
            let seg = &sharded.segments()[addr.segment() as usize];
            let view = seg.view(ckg.n_nodes());
            let from_segment = build_layered_graph(&view, root, &opts, &mut KeepAll);
            let from_parent = build_layered_graph(ckg.csr(), root, &opts, &mut KeepAll);
            assert_eq!(from_segment.node_lists, from_parent.node_lists);
            assert_eq!(from_segment.layers.len(), from_parent.layers.len());
            for (a, b) in from_segment.layers.iter().zip(&from_parent.layers) {
                assert_eq!(a.src_pos, b.src_pos);
                assert_eq!(a.rel, b.rel);
                assert_eq!(a.dst_pos, b.dst_pos);
            }
        }
    }

    #[test]
    fn non_edge_closed_segment_is_rejected() {
        let ckg = two_islands();
        // u0's island is {0, 2, 4} (user 0, item 0, entity 0) — dropping the
        // entity leaves an edge pointing outside.
        let err = Segment::from_parent_rows(ckg.csr(), vec![0, 2]).unwrap_err();
        assert!(matches!(err, ShardError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("edge-closed"), "{err}");
    }

    #[test]
    fn from_global_triples_matches_parent_rows_for_an_island() {
        let ckg = two_islands();
        // u1's island: user 1, item 1 (node 3), entity 1 (node 5).
        let nodes = vec![1u32, 3, 5];
        let triples = vec![
            Triple::new(NodeId(1), RelId::INTERACT, NodeId(3)),
            Triple::new(NodeId(3), RelId(1), NodeId(5)),
        ];
        let direct = Segment::from_global_triples(nodes.clone(), 2, &triples).unwrap();
        let copied = Segment::from_parent_rows(ckg.csr(), nodes).unwrap();
        assert_eq!(direct.nodes(), copied.nodes());
        assert_eq!(direct.n_edges(), copied.n_edges());
        for l in 0..direct.n_nodes() {
            let node = NodeId(index_u32(l, "local id"));
            let a: Vec<OutEdge> = direct.csr().out_edges(node).collect();
            let b: Vec<OutEdge> = copied.csr().out_edges(node).collect();
            assert_eq!(a, b, "local row {l} diverged");
        }
    }

    #[test]
    fn segment_rejects_unknown_triple_node() {
        let err = Segment::from_global_triples(
            vec![0, 1],
            1,
            &[Triple::new(NodeId(0), RelId(0), NodeId(9))],
        )
        .unwrap_err();
        assert!(err.to_string().contains("outside the segment"), "{err}");
    }

    #[test]
    fn shards_pin_only_their_users_components() {
        let ckg = two_islands();
        for n_shards in [1usize, 2, 8] {
            let sharded = ShardedCkg::from_ckg(&ckg, n_shards).unwrap();
            assert_eq!(sharded.n_shards(), n_shards);
            for u in 0..2u32 {
                let s = shard_of(u, n_shards);
                let found =
                    sharded.shard_segments(s).iter().any(|seg| seg.local_of(NodeId(u)).is_some());
                assert!(found, "user {u} missing from its shard {s} at n_shards={n_shards}");
            }
        }
    }
}
