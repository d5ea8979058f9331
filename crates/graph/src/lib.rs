//! # kucnet-graph
//!
//! Graph substrate for the KUCNet reproduction: the collaborative knowledge
//! graph (CKG) data model, CSR adjacency with reverse relations, U-I
//! subgraph extraction (paper Definition 2), and layered user-centric
//! computation graphs (paper Eqs. 8–11, Algorithm 1 lines 3–5).
//!
//! ## Example
//! ```
//! use kucnet_graph::{CkgBuilder, KgNode, UserId, ItemId, EntityId};
//! use kucnet_graph::{build_layered_graph, KeepAll, LayeringOptions};
//!
//! let mut b = CkgBuilder::new(2, 2, 1, 1);
//! b.interact(UserId(0), ItemId(0));
//! b.kg_triple(KgNode::Item(ItemId(0)), 0, KgNode::Entity(EntityId(0)));
//! b.kg_triple(KgNode::Item(ItemId(1)), 0, KgNode::Entity(EntityId(0)));
//! let ckg = b.build();
//!
//! // Item 1 has no interactions, but a 3-hop path u0 -> i0 -> e0 -> i1 exists.
//! let lg = build_layered_graph(
//!     ckg.csr(),
//!     ckg.user_node(UserId(0)),
//!     &LayeringOptions::new(3),
//!     &mut KeepAll,
//! );
//! assert!(lg.final_position(ckg.item_node(ItemId(1))).is_some());
//! ```

#![warn(missing_docs)]

mod analysis;
mod ckg;
mod csr;
mod ids;
mod layering;
mod shard;
mod subgraph;
mod triple;
mod view;

pub use analysis::{
    connected_components, degree_stats, mean_item_reachability, DegreeStats, NodeClass,
};
pub use ckg::{Ckg, CkgBuilder, KgNode};
pub use csr::{CapacityError, Csr, OutEdge};
pub use ids::{index_u32, EntityId, ItemId, NodeId, NodeKind, RelId, UserId};
pub use layering::{
    build_layered_graph, EdgeSelector, KeepAll, Layer, LayeredGraph, LayeringOptions,
};
pub use shard::{
    mix64, route_bucket, shard_of, Segment, SegmentAddr, SegmentLayout, SegmentView, ShardError,
    ShardedCkg, N_ROUTE_BUCKETS,
};
pub use subgraph::{bfs_distances, build_pair_computation_graph, extract_ui_subgraph, UiSubgraph};
pub use triple::Triple;
pub use view::GraphView;
