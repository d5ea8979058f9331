//! Collaborative knowledge graph (CKG): the union of the user–item
//! interaction graph and the knowledge graph, per Section III of the paper.
//!
//! Node layout is `users | items | entities`. Items play the role of KG
//! entities directly (the paper's item–entity alignment set `M` is realized
//! by letting KG triples reference item nodes), and user-side KG edges
//! (e.g. DisGeNet's disease–disease relation) are supported the same way.

use std::collections::HashSet;

use crate::csr::Csr;
use crate::ids::{EntityId, ItemId, NodeId, NodeKind, RelId, UserId};
use crate::shard::SegmentLayout;
use crate::triple::Triple;

/// Immutable CKG with CSR adjacency (reverse edges included).
#[derive(Clone, Debug)]
pub struct Ckg {
    n_users: u32,
    n_items: u32,
    n_entities: u32,
    n_kg_relations: u32,
    interactions: Vec<(UserId, ItemId)>,
    kg_triples: Vec<Triple>,
    csr: Csr,
}

impl Ckg {
    /// Total number of nodes.
    pub fn n_nodes(&self) -> usize {
        (self.n_users + self.n_items + self.n_entities) as usize
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.n_users as usize
    }

    /// Number of items.
    pub fn n_items(&self) -> usize {
        self.n_items as usize
    }

    /// Number of pure KG entities (items excluded).
    pub fn n_entities(&self) -> usize {
        self.n_entities as usize
    }

    /// The `users | items | entities` node layout — the same numbering a
    /// sharded graph's [`SegmentLayout`] describes.
    pub fn layout(&self) -> SegmentLayout {
        SegmentLayout { n_users: self.n_users, n_items: self.n_items, n_entities: self.n_entities }
    }

    /// Number of base relations including "interact" (relation 0).
    pub fn n_base_relations(&self) -> u32 {
        1 + self.n_kg_relations
    }

    /// Number of KG relations (excluding "interact").
    pub fn n_kg_relations(&self) -> u32 {
        self.n_kg_relations
    }

    /// The training interactions this CKG was built from.
    pub fn interactions(&self) -> &[(UserId, ItemId)] {
        &self.interactions
    }

    /// The KG triples this CKG was built from (global node ids).
    pub fn kg_triples(&self) -> &[Triple] {
        &self.kg_triples
    }

    /// CSR adjacency with reverse edges.
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// Global node id of a user.
    #[inline]
    pub fn user_node(&self, u: UserId) -> NodeId {
        debug_assert!(u.0 < self.n_users);
        NodeId(u.0)
    }

    /// Global node id of an item.
    #[inline]
    pub fn item_node(&self, i: ItemId) -> NodeId {
        debug_assert!(i.0 < self.n_items);
        NodeId(self.n_users + i.0)
    }

    /// Global node id of a pure entity.
    #[inline]
    pub fn entity_node(&self, e: EntityId) -> NodeId {
        debug_assert!(e.0 < self.n_entities);
        NodeId(self.n_users + self.n_items + e.0)
    }

    /// Resolves a global node id into its kind.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        if n.0 < self.n_users {
            NodeKind::User(UserId(n.0))
        } else if n.0 < self.n_users + self.n_items {
            NodeKind::Item(ItemId(n.0 - self.n_users))
        } else {
            NodeKind::Entity(EntityId(n.0 - self.n_users - self.n_items))
        }
    }

    /// If `n` is an item node, its [`ItemId`].
    pub fn as_item(&self, n: NodeId) -> Option<ItemId> {
        match self.kind(n) {
            NodeKind::Item(i) => Some(i),
            _ => None,
        }
    }

    /// Items the user interacted with (from the training interactions).
    pub fn user_items(&self, u: UserId) -> Vec<ItemId> {
        let un = self.user_node(u);
        self.csr
            .out_edges(un)
            .filter(|e| e.rel == RelId::INTERACT)
            .filter_map(|e| self.as_item(e.tail))
            .collect()
    }

    /// Human-readable one-line summary (counts), used by dataset stats.
    pub fn summary(&self) -> String {
        format!(
            "users={} items={} entities={} kg_relations={} interactions={} kg_triples={}",
            self.n_users,
            self.n_items,
            self.n_entities,
            self.n_kg_relations,
            self.interactions.len(),
            self.kg_triples.len()
        )
    }
}

/// Builder assembling a [`Ckg`] from interactions and KG triples expressed in
/// domain ids.
pub struct CkgBuilder {
    n_users: u32,
    n_items: u32,
    n_entities: u32,
    n_kg_relations: u32,
    interactions: Vec<(UserId, ItemId)>,
    kg_triples: Vec<Triple>,
    seen: HashSet<(u32, u32, u32)>,
}

/// Endpoint of a KG triple in domain terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KgNode {
    /// A user node (e.g. a disease in DisGeNet).
    User(UserId),
    /// An item node (aligned entity).
    Item(ItemId),
    /// A pure KG entity.
    Entity(EntityId),
}

impl CkgBuilder {
    /// Starts a builder for fixed node counts.
    pub fn new(n_users: u32, n_items: u32, n_entities: u32, n_kg_relations: u32) -> Self {
        Self {
            n_users,
            n_items,
            n_entities,
            n_kg_relations,
            interactions: Vec::new(),
            kg_triples: Vec::new(),
            seen: HashSet::new(),
        }
    }

    fn node(&self, k: KgNode) -> NodeId {
        match k {
            KgNode::User(u) => {
                assert!(u.0 < self.n_users, "user {u:?} out of range");
                NodeId(u.0)
            }
            KgNode::Item(i) => {
                assert!(i.0 < self.n_items, "item {i:?} out of range");
                NodeId(self.n_users + i.0)
            }
            KgNode::Entity(e) => {
                assert!(e.0 < self.n_entities, "entity {e:?} out of range");
                NodeId(self.n_users + self.n_items + e.0)
            }
        }
    }

    /// Records an observed user–item interaction. Duplicates are ignored.
    pub fn interact(&mut self, u: UserId, i: ItemId) -> &mut Self {
        let h = self.node(KgNode::User(u));
        let t = self.node(KgNode::Item(i));
        if self.seen.insert((h.0, 0, t.0)) {
            self.interactions.push((u, i));
        }
        self
    }

    /// Records a KG triple with a 0-based KG relation (mapped to global
    /// relation `kg_rel + 1`, since relation 0 is "interact"). Duplicates are
    /// ignored.
    ///
    /// # Panics
    /// Panics if `kg_rel` is out of range or the endpoints are invalid.
    pub fn kg_triple(&mut self, head: KgNode, kg_rel: u32, tail: KgNode) -> &mut Self {
        assert!(kg_rel < self.n_kg_relations, "kg relation {kg_rel} out of range");
        let h = self.node(head);
        let t = self.node(tail);
        if h == t {
            return self; // self-edges are handled by the explicit self-loop relation
        }
        let rel = RelId(kg_rel + 1);
        if self.seen.insert((h.0, rel.0, t.0)) {
            self.kg_triples.push(Triple::new(h, rel, t));
        }
        self
    }

    /// Number of interactions recorded so far.
    pub fn n_interactions(&self) -> usize {
        self.interactions.len()
    }

    /// Number of KG triples recorded so far.
    pub fn n_kg_triples(&self) -> usize {
        self.kg_triples.len()
    }

    /// Finalizes the CKG, building the CSR with reverse edges.
    pub fn build(self) -> Ckg {
        let n_nodes = (self.n_users + self.n_items + self.n_entities) as usize;
        let n_base = 1 + self.n_kg_relations;
        let mut triples = Vec::with_capacity(self.interactions.len() + self.kg_triples.len());
        for &(u, i) in &self.interactions {
            triples.push(Triple::new(NodeId(u.0), RelId::INTERACT, NodeId(self.n_users + i.0)));
        }
        triples.extend_from_slice(&self.kg_triples);
        let csr = Csr::build(n_nodes, n_base, &triples);
        Ckg {
            n_users: self.n_users,
            n_items: self.n_items,
            n_entities: self.n_entities,
            n_kg_relations: self.n_kg_relations,
            interactions: self.interactions,
            kg_triples: self.kg_triples,
            csr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Ckg {
        let mut b = CkgBuilder::new(2, 3, 2, 2);
        b.interact(UserId(0), ItemId(0));
        b.interact(UserId(0), ItemId(1));
        b.interact(UserId(1), ItemId(1));
        b.kg_triple(KgNode::Item(ItemId(0)), 0, KgNode::Entity(EntityId(0)));
        b.kg_triple(KgNode::Item(ItemId(2)), 0, KgNode::Entity(EntityId(0)));
        b.kg_triple(KgNode::Item(ItemId(1)), 1, KgNode::Entity(EntityId(1)));
        b.build()
    }

    #[test]
    fn layout_and_kinds() {
        let g = toy();
        assert_eq!(g.n_nodes(), 7);
        assert_eq!(g.kind(NodeId(0)), NodeKind::User(UserId(0)));
        assert_eq!(g.kind(NodeId(2)), NodeKind::Item(ItemId(0)));
        assert_eq!(g.kind(NodeId(5)), NodeKind::Entity(EntityId(0)));
        assert_eq!(g.item_node(ItemId(2)), NodeId(4));
        assert_eq!(g.as_item(NodeId(4)), Some(ItemId(2)));
        assert_eq!(g.as_item(NodeId(0)), None);
    }

    #[test]
    fn user_items_reads_interactions() {
        let g = toy();
        let mut items = g.user_items(UserId(0));
        items.sort();
        assert_eq!(items, vec![ItemId(0), ItemId(1)]);
        assert_eq!(g.user_items(UserId(1)), vec![ItemId(1)]);
    }

    #[test]
    fn duplicates_ignored() {
        let mut b = CkgBuilder::new(1, 1, 1, 1);
        b.interact(UserId(0), ItemId(0));
        b.interact(UserId(0), ItemId(0));
        b.kg_triple(KgNode::Item(ItemId(0)), 0, KgNode::Entity(EntityId(0)));
        b.kg_triple(KgNode::Item(ItemId(0)), 0, KgNode::Entity(EntityId(0)));
        assert_eq!(b.n_interactions(), 1);
        assert_eq!(b.n_kg_triples(), 1);
    }

    #[test]
    fn kg_relation_mapping() {
        let g = toy();
        // kg relation 0 maps to global relation 1.
        let item0 = g.item_node(ItemId(0));
        let ent0 = g.entity_node(EntityId(0));
        assert!(g.csr().has_edge(item0, RelId(1), ent0));
        // reverse edge exists with offset n_base = 3.
        assert!(g.csr().has_edge(ent0, RelId(1 + 3), item0));
    }

    #[test]
    fn connects_new_item_through_kg() {
        // Item 2 has no interactions but is connected to item 0 via entity 0.
        let g = toy();
        let i2 = g.item_node(ItemId(2));
        assert!(g.csr().degree(i2) > 0);
    }
}
