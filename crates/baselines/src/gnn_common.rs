//! Shared machinery for the whole-graph embedding GNN baselines
//! (R-GCN, KGAT, KGIN): the BPR batch loss over a full-graph forward pass,
//! and final representations computed once per parameter state for
//! evaluation.
//!
//! These models hold an embedding for every CKG node and propagate over the
//! *entire* graph each step — the "global aggregation with node embeddings"
//! family the paper contrasts KUCNet against.

use std::sync::OnceLock;

use kucnet_graph::{Ckg, ItemId, UserId};
use kucnet_tensor::{Matrix, ParamId, ParamStore, Tape, Var};

use crate::common::{dot_bpr_loss, BprBatch};

/// BPR loss of a batch from the final `(V x d)` node representations:
/// user rows dotted with positive and negative item rows.
pub(crate) fn gnn_bpr_loss(tape: &Tape, ckg: &Ckg, reprs: Var, b: &BprBatch) -> Var {
    let us: Vec<u32> = b.users.iter().map(|&u| ckg.user_node(UserId(u)).0).collect();
    let ps: Vec<u32> = b.pos.iter().map(|&i| ckg.item_node(ItemId(i)).0).collect();
    let ns: Vec<u32> = b.neg.iter().map(|&i| ckg.item_node(ItemId(i)).0).collect();
    dot_bpr_loss(tape, reprs, &us, reprs, &ps, &ns)
}

/// Dot-product scores of one user against every item, from the final
/// representations: `cached` holds them once `forward` has computed them
/// with the parameters `ids` frozen, until the model's parameters change.
pub(crate) fn gnn_scores(
    ckg: &Ckg,
    store: &ParamStore,
    ids: &[ParamId],
    cached: &OnceLock<Matrix>,
    forward: impl FnOnce(&Tape, &[Var]) -> Var,
    user: UserId,
) -> Vec<f32> {
    let reprs = cached.get_or_init(|| {
        let tape = Tape::new();
        let params: Vec<Var> = ids.iter().map(|&id| tape.constant_of(store.value(id))).collect();
        let reprs = forward(&tape, &params);
        tape.value(reprs)
    });
    let u = reprs.row(ckg.user_node(user).0 as usize);
    (0..ckg.n_items() as u32)
        .map(|i| {
            let row = reprs.row(ckg.item_node(ItemId(i)).0 as usize);
            row.iter().zip(u).map(|(&a, &b)| a * b).sum()
        })
        .collect()
}
