//! Layered user-centric computation graphs (paper Eqs. 9–11, Alg. 1 lines 3–5).
//!
//! Starting from a single user node, each layer expands the frontier along
//! CSR out-edges, optionally pruned per head node by an [`EdgeSelector`]
//! (PPR top-K in the full model, random-K or keep-all in the ablations).
//! Self-loop edges keep every already-reached node alive in later layers so
//! that nodes reachable in fewer than `L` hops still carry a representation
//! at layer `L` (the same device RED-GNN uses).
//!
//! The produced [`LayeredGraph`] is position-indexed: edge endpoints are
//! *positions within the adjacent layers' node lists*, which is exactly the
//! indexing scheme the GNN's gather/scatter kernels need.

use crate::ids::{index_u32, IdHashMap, NodeId, RelId};
use crate::view::GraphView;

/// Per-head-node edge pruning policy (Alg. 1 line 4).
pub trait EdgeSelector {
    /// Filters the candidate out-edges `(rel, tail)` of `head` in place.
    /// Self-loops are appended by the layering code afterwards and are never
    /// subject to selection.
    fn select(&mut self, head: NodeId, candidates: &mut Vec<(RelId, NodeId)>);
}

/// Keeps every candidate edge (the `KUCNet-w.o.-PPR` configuration).
#[derive(Default, Clone, Copy)]
pub struct KeepAll;

impl EdgeSelector for KeepAll {
    fn select(&mut self, _head: NodeId, _candidates: &mut Vec<(RelId, NodeId)>) {}
}

/// One message-passing layer: parallel arrays of edges between the previous
/// layer's node list and this layer's node list.
#[derive(Clone, Debug, Default)]
pub struct Layer {
    /// Position of the edge's head in the previous layer's node list.
    pub src_pos: Vec<u32>,
    /// Relation id of the edge (reverse and self-loop ids included).
    pub rel: Vec<u32>,
    /// Position of the edge's tail in this layer's node list.
    pub dst_pos: Vec<u32>,
}

impl Layer {
    /// Number of edges in this layer.
    pub fn n_edges(&self) -> usize {
        self.rel.len()
    }
}

/// An L-layer computation graph rooted at one user.
#[derive(Clone, Debug)]
pub struct LayeredGraph {
    /// The root node (layer-0 node list is exactly `[root]`).
    pub root: NodeId,
    /// `node_lists[l]` holds the global node ids present at layer `l`
    /// (`0..=L`).
    pub node_lists: Vec<Vec<NodeId>>,
    /// `layers[l]` holds the edges from layer `l` to layer `l + 1`
    /// (`0..L`).
    pub layers: Vec<Layer>,
}

impl LayeredGraph {
    /// Depth `L`.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total number of edges across all layers.
    pub fn total_edges(&self) -> usize {
        self.layers.iter().map(Layer::n_edges).sum()
    }

    /// Total number of node slots across all layers.
    pub fn total_nodes(&self) -> usize {
        self.node_lists.iter().map(Vec::len).sum()
    }

    /// Position of `node` in the final layer's node list, if present.
    pub fn final_position(&self, node: NodeId) -> Option<usize> {
        self.node_lists.last().and_then(|l| l.iter().position(|&n| n == node))
    }

    /// Approximate heap footprint of this graph in bytes (node lists plus
    /// the three parallel edge arrays). Serving caches use this to report
    /// how much memory their retained subgraph handles pin.
    pub fn approx_bytes(&self) -> usize {
        let node_bytes = self.total_nodes() * std::mem::size_of::<NodeId>();
        let edge_bytes = 3 * self.total_edges() * std::mem::size_of::<u32>();
        node_bytes + edge_bytes
    }

    /// Checks the structural invariants [`build_layered_graph`] guarantees
    /// against the graph view the graph was expanded from:
    ///
    /// - there is one node list per layer boundary (`depth + 1`) and layer 0
    ///   is exactly `[root]`;
    /// - node lists contain valid, duplicate-free node ids;
    /// - every layer's `src_pos`/`rel`/`dst_pos` arrays have equal length and
    ///   positions index into the adjacent node lists;
    /// - self-loop edges connect a node to itself, and every other edge
    ///   exists in the view with the same relation.
    ///
    /// Returns `Err` describing the first violation found.
    pub fn validate<G: GraphView>(&self, csr: &G) -> Result<(), String> {
        if self.node_lists.len() != self.layers.len() + 1 {
            return Err(format!(
                "{} node lists for {} layers (expected layers + 1)",
                self.node_lists.len(),
                self.layers.len()
            ));
        }
        if self.node_lists[0].as_slice() != [self.root] {
            return Err(format!(
                "layer 0 must be exactly [root {:?}], got {:?}",
                self.root, self.node_lists[0]
            ));
        }
        let n_nodes = csr.n_nodes();
        for (l, list) in self.node_lists.iter().enumerate() {
            let mut seen = std::collections::HashSet::with_capacity(list.len());
            for &node in list {
                if (node.0 as usize) >= n_nodes {
                    return Err(format!(
                        "layer {l}: node {:?} out of range for {n_nodes} CSR nodes",
                        node
                    ));
                }
                if !seen.insert(node.0) {
                    return Err(format!("layer {l}: node {node:?} listed twice"));
                }
            }
        }
        let self_rel = csr.self_loop_rel();
        for (l, layer) in self.layers.iter().enumerate() {
            if layer.src_pos.len() != layer.rel.len() || layer.rel.len() != layer.dst_pos.len() {
                return Err(format!(
                    "layer {l}: parallel arrays disagree \
                     (src {}, rel {}, dst {})",
                    layer.src_pos.len(),
                    layer.rel.len(),
                    layer.dst_pos.len()
                ));
            }
            let (src_list, dst_list) = (&self.node_lists[l], &self.node_lists[l + 1]);
            for k in 0..layer.n_edges() {
                let (sp, dp) = (layer.src_pos[k] as usize, layer.dst_pos[k] as usize);
                if sp >= src_list.len() {
                    return Err(format!(
                        "layer {l} edge {k}: src_pos {sp} out of range \
                         for {} nodes",
                        src_list.len()
                    ));
                }
                if dp >= dst_list.len() {
                    return Err(format!(
                        "layer {l} edge {k}: dst_pos {dp} out of range \
                         for {} nodes",
                        dst_list.len()
                    ));
                }
                let rel = RelId(layer.rel[k]);
                let (head, tail) = (src_list[sp], dst_list[dp]);
                if rel == self_rel {
                    if head != tail {
                        return Err(format!(
                            "layer {l} edge {k}: self-loop connects \
                             {head:?} to {tail:?}"
                        ));
                    }
                } else if !csr.has_edge(head, rel, tail) {
                    return Err(format!(
                        "layer {l} edge {k}: ({head:?}, {rel:?}, {tail:?}) \
                         is not a CSR edge"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Options controlling layered-graph construction.
#[derive(Clone, Debug)]
pub struct LayeringOptions {
    /// Number of layers `L`.
    pub depth: usize,
    /// Whether to add self-loop edges that carry layer-`l` nodes into layer
    /// `l + 1`.
    pub self_loops: bool,
    /// Interaction edges `(user node, item node)` to hide in both directions
    /// (used during training to mask the positive target edges and avoid
    /// label leakage).
    pub excluded_interactions: Vec<(NodeId, NodeId)>,
}

impl LayeringOptions {
    /// Standard options: depth `L`, self-loops on, nothing excluded.
    pub fn new(depth: usize) -> Self {
        Self { depth, self_loops: true, excluded_interactions: Vec::new() }
    }

    /// Disables self-loops (used by tests comparing against pure path
    /// semantics).
    pub fn without_self_loops(mut self) -> Self {
        self.self_loops = false;
        self
    }

    /// Excludes the given interaction edges in both directions.
    pub fn exclude_interactions(mut self, pairs: Vec<(NodeId, NodeId)>) -> Self {
        self.excluded_interactions = pairs;
        self
    }
}

/// Builds the (optionally pruned) user-centric computation graph
/// `C̃_{u|L}` rooted at `root`.
///
/// Generic over [`GraphView`], so the same expansion runs over a plain
/// [`Csr`](crate::Csr) or a dynamic delta overlay. The candidate order per
/// head is the view's out-edge order, which downstream determinism gates
/// rely on (edge order decides selector tie-breaks and float accumulation
/// order in the GNN kernels).
pub fn build_layered_graph<G: GraphView>(
    csr: &G,
    root: NodeId,
    opts: &LayeringOptions,
    selector: &mut dyn EdgeSelector,
) -> LayeredGraph {
    let self_rel = csr.self_loop_rel();
    let excluded: IdHashMap<(u32, u32), ()> = opts
        .excluded_interactions
        .iter()
        .flat_map(|&(a, b)| [((a.0, b.0), ()), ((b.0, a.0), ())])
        .collect();
    let interact_rev = RelId(csr.n_base_relations());

    let mut node_lists: Vec<Vec<NodeId>> = vec![vec![root]];
    let mut layers: Vec<Layer> = Vec::with_capacity(opts.depth);
    let mut candidates: Vec<(RelId, NodeId)> = Vec::new();

    for _ in 0..opts.depth {
        // audit: allow(no-panic) — node_lists is seeded with the root layer
        // above and only ever grows.
        let prev = node_lists.last().unwrap().clone();
        let mut layer = Layer::default();
        let mut next_nodes: Vec<NodeId> = Vec::new();
        let mut next_pos: IdHashMap<u32, u32> = IdHashMap::default();
        let mut pos_of = |n: NodeId, next_nodes: &mut Vec<NodeId>| -> u32 {
            *next_pos.entry(n.0).or_insert_with(|| {
                next_nodes.push(n);
                index_u32(next_nodes.len() - 1, "layer node position")
            })
        };

        for (p, &head) in prev.iter().enumerate() {
            let p = index_u32(p, "layer node position");
            candidates.clear();
            csr.visit_out_edges(head, |e| {
                let is_interact = e.rel == RelId::INTERACT || e.rel == interact_rev;
                if is_interact && excluded.contains_key(&(head.0, e.tail.0)) {
                    return;
                }
                candidates.push((e.rel, e.tail));
            });
            selector.select(head, &mut candidates);
            for &(rel, tail) in candidates.iter() {
                layer.src_pos.push(p);
                layer.rel.push(rel.0);
                layer.dst_pos.push(pos_of(tail, &mut next_nodes));
            }
            if opts.self_loops {
                layer.src_pos.push(p);
                layer.rel.push(self_rel.0);
                layer.dst_pos.push(pos_of(head, &mut next_nodes));
            }
        }
        node_lists.push(next_nodes);
        layers.push(layer);
    }

    LayeredGraph { root, node_lists, layers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckg::{CkgBuilder, KgNode};
    use crate::ids::{EntityId, ItemId, UserId};

    fn toy() -> crate::ckg::Ckg {
        // u0 - i0, u0 - i1, u1 - i1; i0 -e0, i2 - e0
        let mut b = CkgBuilder::new(2, 3, 1, 1);
        b.interact(UserId(0), ItemId(0));
        b.interact(UserId(0), ItemId(1));
        b.interact(UserId(1), ItemId(1));
        b.kg_triple(KgNode::Item(ItemId(0)), 0, KgNode::Entity(EntityId(0)));
        b.kg_triple(KgNode::Item(ItemId(2)), 0, KgNode::Entity(EntityId(0)));
        b.build()
    }

    #[test]
    fn layer_zero_is_root() {
        let g = toy();
        let root = g.user_node(UserId(0));
        let lg = build_layered_graph(g.csr(), root, &LayeringOptions::new(3), &mut KeepAll);
        assert_eq!(lg.node_lists[0], vec![root]);
        assert_eq!(lg.depth(), 3);
        assert_eq!(lg.node_lists.len(), 4);
    }

    #[test]
    fn reaches_new_item_via_kg_in_three_hops() {
        // u0 -> i0 -> e0 -> i2: the "new item" i2 is reached at layer 3.
        let g = toy();
        let root = g.user_node(UserId(0));
        let lg = build_layered_graph(g.csr(), root, &LayeringOptions::new(3), &mut KeepAll);
        let i2 = g.item_node(ItemId(2));
        assert!(lg.final_position(i2).is_some(), "i2 must appear in layer 3");
    }

    #[test]
    fn self_loops_keep_nodes_alive() {
        let g = toy();
        let root = g.user_node(UserId(0));
        let lg = build_layered_graph(g.csr(), root, &LayeringOptions::new(3), &mut KeepAll);
        // The root itself stays reachable at the last layer thanks to loops.
        assert!(lg.final_position(root).is_some());
        // Without self-loops the root appears at even layers only.
        let lg2 = build_layered_graph(
            g.csr(),
            root,
            &LayeringOptions::new(3).without_self_loops(),
            &mut KeepAll,
        );
        assert!(lg2.final_position(root).is_none());
    }

    #[test]
    fn excluded_interactions_hidden_both_directions() {
        let g = toy();
        let u0 = g.user_node(UserId(0));
        let i0 = g.item_node(ItemId(0));
        let opts = LayeringOptions::new(1).exclude_interactions(vec![(u0, i0)]);
        let lg = build_layered_graph(g.csr(), u0, &opts, &mut KeepAll);
        assert!(lg.node_lists[1].iter().all(|&n| n != i0), "excluded edge must hide i0");
        // i1 is still reachable.
        assert!(lg.node_lists[1].contains(&g.item_node(ItemId(1))));
    }

    #[test]
    fn positions_are_consistent() {
        let g = toy();
        let root = g.user_node(UserId(0));
        let lg = build_layered_graph(g.csr(), root, &LayeringOptions::new(2), &mut KeepAll);
        for (l, layer) in lg.layers.iter().enumerate() {
            for k in 0..layer.n_edges() {
                assert!((layer.src_pos[k] as usize) < lg.node_lists[l].len());
                assert!((layer.dst_pos[k] as usize) < lg.node_lists[l + 1].len());
            }
        }
    }

    #[test]
    fn validate_accepts_built_graphs() {
        let g = toy();
        let root = g.user_node(UserId(0));
        for depth in 1..=3 {
            let lg = build_layered_graph(g.csr(), root, &LayeringOptions::new(depth), &mut KeepAll);
            assert_eq!(lg.validate(g.csr()), Ok(()));
        }
    }

    #[test]
    fn validate_rejects_phantom_edge() {
        let g = toy();
        let root = g.user_node(UserId(0));
        let mut lg = build_layered_graph(g.csr(), root, &LayeringOptions::new(2), &mut KeepAll);
        // Rewrite one non-self-loop edge's relation to one that does not
        // exist between its endpoints.
        let self_rel = g.csr().self_loop_rel().0;
        let layer = &mut lg.layers[0];
        let k = (0..layer.n_edges())
            .find(|&k| layer.rel[k] != self_rel)
            .expect("toy graph has a non-loop edge");
        layer.rel[k] = if layer.rel[k] == 0 { 1 } else { 0 };
        let err = lg.validate(g.csr()).unwrap_err();
        assert!(err.contains("not a CSR edge"), "{err}");
    }

    #[test]
    fn validate_rejects_out_of_range_position() {
        let g = toy();
        let root = g.user_node(UserId(0));
        let mut lg = build_layered_graph(g.csr(), root, &LayeringOptions::new(1), &mut KeepAll);
        lg.layers[0].dst_pos[0] = 10_000;
        let err = lg.validate(g.csr()).unwrap_err();
        assert!(err.contains("dst_pos"), "{err}");
    }

    #[test]
    fn validate_rejects_duplicate_layer_node() {
        let g = toy();
        let root = g.user_node(UserId(0));
        let mut lg = build_layered_graph(g.csr(), root, &LayeringOptions::new(1), &mut KeepAll);
        let dup = lg.node_lists[1][0];
        lg.node_lists[1].push(dup);
        let err = lg.validate(g.csr()).unwrap_err();
        assert!(err.contains("listed twice"), "{err}");
    }

    #[test]
    fn truncating_selector_caps_out_edges() {
        struct Cap(usize);
        impl EdgeSelector for Cap {
            fn select(&mut self, _h: NodeId, c: &mut Vec<(RelId, NodeId)>) {
                c.truncate(self.0);
            }
        }
        let g = toy();
        let root = g.user_node(UserId(0));
        let lg = build_layered_graph(
            g.csr(),
            root,
            &LayeringOptions::new(1).without_self_loops(),
            &mut Cap(1),
        );
        assert_eq!(lg.layers[0].n_edges(), 1);
    }
}
