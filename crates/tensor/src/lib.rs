//! # kucnet-tensor
//!
//! Dense 2-D `f32` tensors with tape-based reverse-mode automatic
//! differentiation, weight initializers, and first-order optimizers.
//!
//! This crate is the numerical substrate for the KUCNet reproduction: the
//! paper's model (and every learned baseline) is expressed as a computation
//! graph over [`Matrix`] values recorded on a [`Tape`]. The op set is tailored
//! to relational GNNs on edge lists — `gather_rows` / `scatter_add_rows` are
//! the message-passing primitives, `mul_col_broadcast` applies per-edge
//! attention weights, and `softplus` implements the BPR loss.
//!
//! ## Example
//! ```
//! use kucnet_tensor::{Matrix, Tape};
//!
//! let tape = Tape::new();
//! let w = tape.leaf(Matrix::from_vec(2, 1, vec![0.5, -0.5]));
//! let x = tape.constant(Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]));
//! let y = tape.matmul(x, w);        // (3 x 1)
//! let loss = tape.mean_all(tape.square(y));
//! tape.backward(loss);
//! assert_eq!(tape.grad(w).unwrap().shape(), (2, 1));
//! ```

#![warn(missing_docs)]

mod init;
mod kernels;
mod matrix;
mod nn;
mod optim;
mod pool;
mod serialize;
mod tanh;
mod tape;

pub use init::{normal, uniform, xavier_uniform};
pub use kernels::{
    add_row_broadcast, fused_gather_add_scale_scatter_into, fused_gather_attn_scores_into,
    gather_rows, mul_col_broadcast, scale_rows_in_place, scatter_add_rows,
};
pub use matrix::Matrix;
pub use nn::{row_softmax, segment_softmax};
pub use optim::{collect_grads, Adam, GradEntry, ParamId, ParamStore, Sgd};
pub use pool::{global_pool_stats, MatrixPool, PoolGuard, PoolStash, PoolStats};
pub use serialize::CheckpointError;
pub use tanh::tanh;
pub use tape::{stable_sigmoid, stable_softplus, Tape, TapeGuard, TapeStash, Var};
