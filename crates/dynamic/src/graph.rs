//! The mutable graph: append log, epoched snapshots, refresh ticks.
//!
//! [`DynamicGraph`] wraps an immutable base CSR in three layers of state:
//!
//! 1. a **pending log** of appended triples, invisible to scoring;
//! 2. the **committed snapshot** ([`GraphSnapshot`]): base CSR + delta
//!    overlay + per-user sparse PPR entries + per-user version stamps,
//!    swapped atomically by [`DynamicGraph::refresh_tick`];
//! 3. periodic **compaction**: once the overlay exceeds
//!    `compact_threshold` triples, a tick folds it into a fresh CSR built
//!    from the canonical triple list (base order ++ log order), which is
//!    transparent by construction — see `delta.rs`.
//!
//! A refresh tick recomputes PPR only for the **dirty frontier**: users
//! within `iterations` hops of any new-edge endpoint (see
//! `kucnet_ppr::influence_frontier` for why that is a sound superset),
//! eight users per sweep through `PprGraph::sparse_many`.
//! Users outside the frontier keep entries bitwise equal to a from-scratch
//! recompute; recomputed users whose entries did not change keep their old
//! version stamp, so only genuinely affected users invalidate serve-cache
//! entries.
//!
//! All heavy work of a tick (frontier, PPR, compaction) happens on **copies
//! outside any lock**; the commit is a plain pointer swap plus a pending-log
//! drain at the very end. A panic anywhere before the commit — including
//! one injected through [`DynamicGraph::refresh_tick_observed`] — leaves
//! the previous epoch fully servable and the pending log intact.

use std::collections::BTreeSet;
use std::sync::Arc;

use kucnet_graph::{Ckg, Csr, NodeId, RelId, Triple};
use kucnet_ppr::{influence_frontier, PprCache, PprConfig, PprGraph, PPR_KEEP};
use kucnet_serve::{AppendAck, RefreshAck};
use parking_lot::{Mutex, RwLock};

use crate::delta::{DeltaAdj, DeltaView};

/// Tuning knobs of the dynamic graph.
#[derive(Clone, Debug)]
pub struct DynamicConfig {
    /// PPR iteration parameters — must match the model's preprocessing
    /// (`PprConfig::default()` for a stock `KucNet`) for snapshot entries to
    /// be interchangeable with the model's own cache.
    pub ppr: PprConfig,
    /// Sparse entries kept per user PPR vector (stock `KucNet` uses
    /// [`PPR_KEEP`]).
    pub keep: usize,
    /// Overlay size (in logical triples) beyond which a refresh tick
    /// compacts the delta back into a fresh base CSR.
    pub compact_threshold: usize,
    /// Worker threads for PPR (re)computation on the shared `kucnet-par`
    /// pool; results are identical for every value.
    pub threads: usize,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        Self { ppr: PprConfig::default(), keep: PPR_KEEP, compact_threshold: 1024, threads: 1 }
    }
}

/// Phases of a refresh tick, in execution order — exposed so chaos tests
/// can inject a panic at any point and assert the old epoch survives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefreshPhase {
    /// Pending log copied out; nothing computed yet.
    Collect,
    /// Dirty frontier (BFS from new-edge endpoints) computed.
    Frontier,
    /// Frontier users' PPR entries recomputed.
    Recompute,
    /// Compaction decision made (and the fresh CSR built, if compacting).
    Compact,
    /// About to swap the snapshot in (last observable point before commit).
    Commit,
}

/// One committed, immutable epoch of the graph: everything a scoring batch
/// needs, pinned behind one `Arc`.
pub struct GraphSnapshot {
    epoch: u64,
    base: Arc<Csr>,
    /// Canonical triples of `base`, in build order (shared across epochs,
    /// replaced on compaction).
    base_triples: Arc<Vec<Triple>>,
    /// Committed triples not yet compacted, in log order.
    delta_log: Vec<Triple>,
    delta: DeltaAdj,
    /// Per-user sparse PPR entries, node-id sorted (see `kucnet_ppr`).
    ppr: Vec<Vec<(u32, f32)>>,
    /// Epoch at which each user's PPR entries last changed; the serve-cache
    /// version stamp.
    user_versions: Vec<u64>,
}

impl GraphSnapshot {
    /// The epoch counter (0 until a refresh commits something).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A [`GraphView`] of this epoch's adjacency.
    pub fn view(&self) -> DeltaView<'_> {
        DeltaView::new(&self.base, &self.delta)
    }

    /// The sparse PPR entries of `user`, sorted by node id.
    pub fn ppr_entries(&self, user: u32) -> &[(u32, f32)] {
        &self.ppr[user as usize]
    }

    /// The version stamp of `user`'s subgraph under this epoch.
    pub fn user_version(&self, user: u32) -> u64 {
        self.user_versions[user as usize]
    }

    /// Number of logical triples in the uncompacted overlay.
    pub fn delta_len(&self) -> usize {
        self.delta.n_triples()
    }

    /// Number of users the snapshot tracks PPR entries for.
    pub fn n_users(&self) -> usize {
        self.user_versions.len()
    }

    /// The canonical triple list of this epoch's graph: base triples in
    /// build order, then committed appends in log order. `Csr::build` over
    /// this list reproduces this epoch's adjacency edge-for-edge — the
    /// from-scratch reference of the differential gates.
    pub fn final_triples(&self) -> Vec<Triple> {
        let mut out = Vec::with_capacity(self.base_triples.len() + self.delta_log.len());
        out.extend_from_slice(&self.base_triples);
        out.extend_from_slice(&self.delta_log);
        out
    }
}

/// Mutable state behind the [`DynamicGraph`] lock.
struct State {
    snapshot: Arc<GraphSnapshot>,
    /// Appended triples awaiting the next refresh tick, in arrival order.
    pending: Vec<Triple>,
    /// Every logical triple `(head, rel, tail)` present in the committed
    /// graph or the pending log — the dedup set. A `BTreeSet` keeps any
    /// future iteration deterministic.
    seen: BTreeSet<(u32, u32, u32)>,
}

/// The mutable CKG: an append-only write path over an immutable node/
/// relation vocabulary. Node and relation id spaces are fixed at
/// construction (new *edges* arrive at runtime; new *ids* require a
/// rebuild), which is exactly the paper's new-item scenario: a cold item
/// node exists from the start and becomes recommendable once edges attach
/// it to the graph.
pub struct DynamicGraph {
    n_users: usize,
    n_items: usize,
    config: DynamicConfig,
    /// Serializes refresh ticks. Lock order: `tick` before `state`, always.
    tick: Mutex<()>,
    state: RwLock<State>,
}

impl DynamicGraph {
    /// Wraps `ckg` as epoch 0 with an empty overlay and freshly computed
    /// PPR entries.
    pub fn new(ckg: &Ckg, config: DynamicConfig) -> Self {
        let ppr =
            PprCache::compute(ckg.csr(), ckg.n_users(), &config.ppr, config.keep, config.threads);
        Self::with_entries(ckg, config, ppr.into_entries())
    }

    /// Wraps `ckg` as epoch 0 with an empty overlay and the given per-user
    /// PPR entries, which must be what [`PprCache::compute`] over
    /// `ckg.csr()` with `config`'s PPR parameters returns — a model's own
    /// cache, for one, so that serving a trained model does not compute
    /// its PPR twice.
    ///
    /// `ckg.csr()` is the CSR of the canonical triple list (interactions,
    /// then KG triples), so the base is a copy of it.
    pub fn with_entries(ckg: &Ckg, config: DynamicConfig, ppr: Vec<Vec<(u32, f32)>>) -> Self {
        let mut base_triples =
            Vec::with_capacity(ckg.interactions().len() + ckg.kg_triples().len());
        for &(u, i) in ckg.interactions() {
            base_triples.push(Triple::new(ckg.user_node(u), RelId::INTERACT, ckg.item_node(i)));
        }
        base_triples.extend_from_slice(ckg.kg_triples());
        Self::assemble(ckg.n_users(), ckg.n_items(), ckg.csr().clone(), base_triples, config, ppr)
    }

    /// Builds epoch 0 directly from a canonical triple list — the
    /// from-scratch constructor the differential gates compare against.
    pub fn from_canonical(
        n_users: usize,
        n_items: usize,
        n_nodes: usize,
        n_base_relations: u32,
        base_triples: Vec<Triple>,
        config: DynamicConfig,
    ) -> Self {
        let base = Csr::build(n_nodes, n_base_relations, &base_triples);
        let ppr = PprCache::compute(&base, n_users, &config.ppr, config.keep, config.threads)
            .into_entries();
        Self::assemble(n_users, n_items, base, base_triples, config, ppr)
    }

    /// Epoch 0 over `base` (the CSR of `base_triples`) with `ppr` as every
    /// user's entries.
    fn assemble(
        n_users: usize,
        n_items: usize,
        base: Csr,
        base_triples: Vec<Triple>,
        config: DynamicConfig,
        ppr: Vec<Vec<(u32, f32)>>,
    ) -> Self {
        debug_assert_eq!(ppr.len(), n_users, "one PPR entry list per user");
        let seen: BTreeSet<(u32, u32, u32)> =
            base_triples.iter().map(|t| (t.head.0, t.rel.0, t.tail.0)).collect();
        let snapshot = Arc::new(GraphSnapshot {
            epoch: 0,
            delta: DeltaAdj::new(base.n_nodes()),
            base_triples: Arc::new(base_triples),
            delta_log: Vec::new(),
            ppr,
            user_versions: vec![0; n_users],
            base: Arc::new(base),
        });
        Self {
            n_users,
            n_items,
            config,
            tick: Mutex::new(()),
            state: RwLock::new(State { snapshot, pending: Vec::new(), seen }),
        }
    }

    /// A from-scratch rebuild of this graph's **committed** state: same
    /// canonical triples, fresh CSR, fresh PPR. Pending appends are not
    /// included (run a [`refresh_tick`](DynamicGraph::refresh_tick) first).
    pub fn rebuild_from_scratch(&self) -> Self {
        let snap = self.snapshot();
        Self::from_canonical(
            self.n_users,
            self.n_items,
            snap.base.n_nodes(),
            snap.base.n_base_relations(),
            snap.final_triples(),
            self.config.clone(),
        )
    }

    /// The committed snapshot (cheap: one `Arc` clone under a read lock).
    pub fn snapshot(&self) -> Arc<GraphSnapshot> {
        Arc::clone(&self.state.read().snapshot)
    }

    /// The configuration this graph was built with.
    pub fn config(&self) -> &DynamicConfig {
        &self.config
    }

    /// The committed epoch counter.
    pub fn epoch(&self) -> u64 {
        self.state.read().snapshot.epoch
    }

    /// Appended triples awaiting the next refresh tick.
    pub fn pending_len(&self) -> usize {
        self.state.read().pending.len()
    }

    /// Logs a user→item interaction for the next refresh tick.
    ///
    /// # Errors
    /// Rejects out-of-range user or item ids.
    pub fn append_interaction(&self, user: u32, item: u32) -> Result<AppendAck, String> {
        if user as usize >= self.n_users {
            return Err(format!("user {user} out of range (n_users={})", self.n_users));
        }
        if item as usize >= self.n_items {
            return Err(format!("item {item} out of range (n_items={})", self.n_items));
        }
        let item_node = NodeId(kucnet_graph::index_u32(self.n_users, "user count") + item);
        self.append(Triple::new(NodeId(user), RelId::INTERACT, item_node))
    }

    /// Logs a KG triple for the next refresh tick. `head`/`tail` are global
    /// node ids; `rel` is a global **base** relation id in `1..n_base`
    /// (interactions go through
    /// [`append_interaction`](DynamicGraph::append_interaction)).
    ///
    /// # Errors
    /// Rejects out-of-range nodes, non-KG relations, and self-loops.
    pub fn append_triple(&self, head: u32, rel: u32, tail: u32) -> Result<AppendAck, String> {
        let (n_nodes, n_base) = {
            let snap = self.snapshot();
            (snap.base.n_nodes(), snap.base.n_base_relations())
        };
        if head as usize >= n_nodes || tail as usize >= n_nodes {
            return Err(format!("node out of range ({head} or {tail}, n_nodes={n_nodes})"));
        }
        if rel == 0 || rel >= n_base {
            return Err(format!(
                "relation {rel} out of range (KG relations are 1..{n_base}; \
                 use the interaction form for relation 0)"
            ));
        }
        if head == tail {
            return Err("self-loop triples are not allowed".to_string());
        }
        self.append(Triple::new(NodeId(head), RelId(rel), NodeId(tail)))
    }

    /// Logs a validated triple, deduplicating against the committed graph
    /// and the pending log.
    fn append(&self, triple: Triple) -> Result<AppendAck, String> {
        let mut state = self.state.write();
        let key = (triple.head.0, triple.rel.0, triple.tail.0);
        let deduped = !state.seen.insert(key);
        if !deduped {
            state.pending.push(triple);
        }
        Ok(AppendAck { epoch: state.snapshot.epoch, pending: state.pending.len(), deduped })
    }

    /// Folds all pending appends into a new committed epoch. See the module
    /// docs for the phase structure and the determinism argument.
    pub fn refresh_tick(&self) -> RefreshAck {
        self.refresh_tick_observed(&mut |_| {})
    }

    /// [`refresh_tick`](DynamicGraph::refresh_tick) with a phase observer.
    /// The observer runs on the calling thread **before** the named phase's
    /// effects become visible; a panic raised from it (fault injection)
    /// aborts the tick with the previous epoch intact and the pending log
    /// untouched.
    pub fn refresh_tick_observed(&self, observe: &mut dyn FnMut(RefreshPhase)) -> RefreshAck {
        // Lock order: tick before state. The tick mutex serializes whole
        // refreshes; state locks below are short (copy out / swap in).
        let _tick = self.tick.lock();
        observe(RefreshPhase::Collect);
        let (old, applied_triples) = {
            let state = self.state.read();
            (Arc::clone(&state.snapshot), state.pending.clone())
        };
        let applied = applied_triples.len();
        if applied == 0 {
            return RefreshAck {
                epoch: old.epoch,
                applied: 0,
                recomputed: 0,
                changed_users: Vec::new(),
                compacted: false,
            };
        }
        let n_base = old.base.n_base_relations();

        // Extend the overlay with the applied triples (off-lock, on copies).
        let mut delta = old.delta.clone();
        let mut delta_log = old.delta_log.clone();
        for &t in &applied_triples {
            delta.push(t, n_base);
            delta_log.push(t);
        }

        observe(RefreshPhase::Frontier);
        let endpoints: Vec<NodeId> =
            applied_triples.iter().flat_map(|t| [t.head, t.tail]).collect();
        let frontier = {
            let view = DeltaView::new(&old.base, &delta);
            influence_frontier(&view, &endpoints, self.config.ppr.iterations)
        };

        observe(RefreshPhase::Recompute);
        let dirty_users: Vec<u32> = (0..self.n_users)
            .filter(|&u| frontier[u])
            .map(|u| kucnet_graph::index_u32(u, "user id"))
            .collect();
        let recomputed_entries = {
            let sources: Vec<NodeId> = dirty_users.iter().map(|&u| NodeId(u)).collect();
            PprGraph::new(&DeltaView::new(&old.base, &delta)).sparse_many(
                &sources,
                &self.config.ppr,
                self.config.keep,
                self.config.threads,
            )
        };
        let new_epoch = old.epoch + 1;
        let mut ppr = old.ppr.clone();
        let mut user_versions = old.user_versions.clone();
        let mut changed_users = Vec::new();
        for (&u, entries) in dirty_users.iter().zip(recomputed_entries) {
            if ppr[u as usize] != entries {
                ppr[u as usize] = entries;
                user_versions[u as usize] = new_epoch;
                changed_users.push(u);
            }
        }

        observe(RefreshPhase::Compact);
        let compacted = delta.n_triples() > self.config.compact_threshold;
        let (base, base_triples, delta, delta_log) = if compacted {
            let mut canonical = Vec::with_capacity(old.base_triples.len() + delta_log.len());
            canonical.extend_from_slice(&old.base_triples);
            canonical.extend_from_slice(&delta_log);
            let fresh = Csr::build(old.base.n_nodes(), n_base, &canonical);
            let empty = DeltaAdj::new(fresh.n_nodes());
            (Arc::new(fresh), Arc::new(canonical), empty, Vec::new())
        } else {
            (Arc::clone(&old.base), Arc::clone(&old.base_triples), delta, delta_log)
        };
        let snapshot = Arc::new(GraphSnapshot {
            epoch: new_epoch,
            base,
            base_triples,
            delta_log,
            delta,
            ppr,
            user_versions,
        });

        observe(RefreshPhase::Commit);
        {
            let mut state = self.state.write();
            // Appends that arrived while this tick computed stay pending;
            // drain exactly the prefix that was folded in.
            state.pending.drain(0..applied);
            state.snapshot = snapshot;
        }
        RefreshAck {
            epoch: new_epoch,
            applied,
            recomputed: dirty_users.len(),
            changed_users,
            compacted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kucnet_datasets::{DatasetProfile, GeneratedDataset};
    use kucnet_graph::GraphView;

    fn tiny_graph(compact_threshold: usize) -> DynamicGraph {
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 42);
        let ckg = data.build_ckg(&data.interactions);
        let config = DynamicConfig { compact_threshold, ..DynamicConfig::default() };
        DynamicGraph::new(&ckg, config)
    }

    #[test]
    fn appends_are_pending_until_a_tick_commits_them() {
        let g = tiny_graph(usize::MAX);
        let before = g.snapshot();
        let ack = g.append_interaction(0, 1).expect("valid append");
        assert_eq!(ack.epoch, 0);
        assert_eq!(g.pending_len(), ack.pending);
        // Still invisible: the committed snapshot has not moved.
        assert_eq!(g.snapshot().epoch(), before.epoch());
        let tick = g.refresh_tick();
        assert_eq!(tick.epoch, 1);
        assert_eq!(tick.applied, ack.pending);
        assert_eq!(g.pending_len(), 0);
    }

    #[test]
    fn duplicate_appends_are_deduped_against_graph_and_log() {
        let g = tiny_graph(usize::MAX);
        let data = GeneratedDataset::generate(&DatasetProfile::tiny(), 42);
        let ckg = data.build_ckg(&data.interactions);
        let &(u, i) = ckg.interactions().first().expect("tiny dataset has interactions");
        // Already committed in the base graph.
        assert!(g.append_interaction(u.0, i.0).expect("valid ids").deduped);
        // Fresh edge: first append accepted, the repeat deduped.
        let fresh = (0..ckg.n_items() as u32)
            .find(|&it| !ckg.interactions().contains(&(u, kucnet_graph::ItemId(it))))
            .expect("some non-interacted item");
        assert!(!g.append_interaction(u.0, fresh).expect("valid ids").deduped);
        assert!(g.append_interaction(u.0, fresh).expect("valid ids").deduped);
        assert_eq!(g.pending_len(), 1);
    }

    #[test]
    fn append_validation_rejects_bad_ids() {
        let g = tiny_graph(usize::MAX);
        assert!(g.append_interaction(u32::MAX, 0).is_err(), "user out of range");
        assert!(g.append_interaction(0, u32::MAX).is_err(), "item out of range");
        assert!(g.append_triple(0, 0, 1).is_err(), "relation 0 is the interaction relation");
        assert!(g.append_triple(0, u32::MAX, 1).is_err(), "relation out of range");
        assert!(g.append_triple(3, 1, 3).is_err(), "self-loop");
        assert!(g.append_triple(u32::MAX, 1, 0).is_err(), "node out of range");
        assert_eq!(g.pending_len(), 0, "no rejected append may leak into the log");
    }

    #[test]
    fn empty_tick_is_a_no_op() {
        let g = tiny_graph(usize::MAX);
        let tick = g.refresh_tick();
        assert_eq!(tick.epoch, 0);
        assert_eq!(tick.applied, 0);
        assert_eq!(g.epoch(), 0);
    }

    #[test]
    fn tick_onboards_new_edges_and_bumps_only_changed_users() {
        let g = tiny_graph(usize::MAX);
        g.append_interaction(0, 2).expect("valid append");
        let tick = g.refresh_tick();
        assert!(tick.recomputed >= tick.changed_users.len());
        let snap = g.snapshot();
        let item_node = NodeId(kucnet_graph::index_u32(g.n_users, "user count") + 2);
        assert!(snap.view().has_edge(NodeId(0), RelId::INTERACT, item_node));
        for u in 0..snap.n_users() {
            let u = kucnet_graph::index_u32(u, "user");
            let expected = if tick.changed_users.contains(&u) { 1 } else { 0 };
            assert_eq!(snap.user_version(u), expected, "user {u}");
        }
    }

    #[test]
    fn compaction_is_transparent() {
        // Same appends, threshold 0 (compact every tick) vs usize::MAX
        // (never compact): snapshots must agree edge-for-edge and PPR entry
        // for PPR entry.
        let overlay = tiny_graph(usize::MAX);
        let compacting = tiny_graph(0);
        for (u, it) in [(0u32, 3u32), (1, 4), (2, 3)] {
            overlay.append_interaction(u, it).expect("valid");
            compacting.append_interaction(u, it).expect("valid");
        }
        let (t1, t2) = (overlay.refresh_tick(), compacting.refresh_tick());
        assert!(!t1.compacted && t2.compacted);
        assert_eq!(t1.changed_users, t2.changed_users);
        let (s1, s2) = (overlay.snapshot(), compacting.snapshot());
        assert_eq!(s1.final_triples(), s2.final_triples());
        for n in 0..s1.view().n_nodes() {
            let node = NodeId(kucnet_graph::index_u32(n, "node"));
            let mut e1 = Vec::new();
            s1.view().visit_out_edges(node, |e| e1.push(e));
            let mut e2 = Vec::new();
            s2.view().visit_out_edges(node, |e| e2.push(e));
            assert_eq!(e1, e2, "edges of node {n}");
        }
        for u in 0..s1.n_users() {
            let u = kucnet_graph::index_u32(u, "user");
            assert_eq!(s1.ppr_entries(u), s2.ppr_entries(u), "PPR of user {u}");
        }
    }

    #[test]
    fn observer_panic_leaves_old_epoch_servable() {
        let g = tiny_graph(usize::MAX);
        g.append_interaction(0, 2).expect("valid");
        for phase in [
            RefreshPhase::Collect,
            RefreshPhase::Frontier,
            RefreshPhase::Recompute,
            RefreshPhase::Compact,
            RefreshPhase::Commit,
        ] {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                g.refresh_tick_observed(&mut |p| assert_ne!(p, phase, "injected fault"));
            }));
            assert!(caught.is_err(), "fault at {phase:?} must propagate");
            assert_eq!(g.epoch(), 0, "epoch intact after fault at {phase:?}");
            assert_eq!(g.pending_len(), 1, "pending intact after fault at {phase:?}");
        }
        // A clean tick afterwards still applies the append.
        let tick = g.refresh_tick();
        assert_eq!((tick.epoch, tick.applied), (1, 1));
    }
}
