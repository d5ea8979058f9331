//! Parameter storage and first-order optimizers.
//!
//! A [`ParamStore`] owns named parameter matrices. Each training step, a model
//! binds the parameters it needs onto a fresh [`Tape`](crate::tape::Tape) with
//! [`ParamStore::bind`], runs forward/backward, and applies gradients with an
//! [`Adam`] or [`Sgd`] step keyed by parameter index. Sparse models (only a
//! subset of parameters touched per step) simply skip absent gradients.

use std::collections::HashMap;

use crate::matrix::Matrix;
use crate::tape::{Tape, Var};

/// Index of a parameter inside a [`ParamStore`]; stable across the store's
/// lifetime.
pub type ParamId = usize;

/// Named collection of trainable matrices.
#[derive(Debug, Default)]
pub struct ParamStore {
    names: HashMap<String, ParamId>,
    values: Vec<Matrix>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a parameter, returning its id.
    ///
    /// # Panics
    /// Panics if the name is already taken.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let name = name.into();
        assert!(!self.names.contains_key(&name), "duplicate parameter name: {name}");
        let id = self.values.len();
        self.names.insert(name, id);
        self.values.push(value);
        id
    }

    /// Looks a parameter id up by name.
    pub fn id(&self, name: &str) -> Option<ParamId> {
        self.names.get(name).copied()
    }

    /// Borrow of the current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id]
    }

    /// Mutable borrow of a parameter (for manual updates or tests).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id]
    }

    /// Number of parameters (matrices).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the store has no parameters.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar parameters (for the paper's Figure 5).
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Matrix::len).sum()
    }

    /// Binds parameter `id` onto `tape` as a differentiable leaf. The value
    /// is copied into a pooled buffer so resettable tapes recycle it.
    pub fn bind(&self, tape: &Tape, id: ParamId) -> Var {
        tape.leaf_of(&self.values[id])
    }

    /// Iterates over `(name, id)` pairs in insertion order of ids.
    pub fn names(&self) -> impl Iterator<Item = (&str, ParamId)> {
        let mut pairs: Vec<(&str, ParamId)> =
            self.names.iter().map(|(n, &i)| (n.as_str(), i)).collect();
        pairs.sort_by_key(|&(_, i)| i);
        pairs.into_iter()
    }
}

/// A single `(parameter id, gradient)` pair produced by one training step.
pub struct GradEntry {
    /// Which parameter the gradient applies to.
    pub id: ParamId,
    /// Accumulated gradient (same shape as the parameter).
    pub grad: Matrix,
}

/// Collects gradients from a tape for a list of `(ParamId, Var)` bindings.
/// Bindings whose vars received no gradient are skipped.
pub fn collect_grads(tape: &Tape, bindings: &[(ParamId, Var)]) -> Vec<GradEntry> {
    bindings
        .iter()
        .filter_map(|&(id, var)| tape.grad(var).map(|grad| GradEntry { id, grad }))
        .collect()
}

/// Adam optimizer with decoupled weight decay (AdamW-style), matching the
/// paper's "Adam stochastic gradient descent" with tuned weight decay.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    step: u64,
    m: HashMap<ParamId, Matrix>,
    v: HashMap<ParamId, Matrix>,
}

impl Adam {
    /// Creates an Adam optimizer with the given learning rate and weight
    /// decay; betas default to `(0.9, 0.999)` and eps to `1e-8`.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            step: 0,
            m: HashMap::new(),
            v: HashMap::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Applies one optimizer step for the provided gradients.
    pub fn step(&mut self, store: &mut ParamStore, grads: &[GradEntry]) {
        self.step += 1;
        let t = self.step as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        for entry in grads {
            let p = store.value_mut(entry.id);
            let m = self.m.entry(entry.id).or_insert_with(|| Matrix::zeros(p.rows(), p.cols()));
            let v = self.v.entry(entry.id).or_insert_with(|| Matrix::zeros(p.rows(), p.cols()));
            let (lr, b1, b2, eps, wd) =
                (self.lr, self.beta1, self.beta2, self.eps, self.weight_decay);
            let g = entry.grad.data();
            let pd = p.data_mut();
            let md = m.data_mut();
            let vd = v.data_mut();
            for i in 0..pd.len() {
                md[i] = b1 * md[i] + (1.0 - b1) * g[i];
                vd[i] = b2 * vd[i] + (1.0 - b2) * g[i] * g[i];
                let mhat = md[i] / bc1;
                let vhat = vd[i] / bc2;
                pd[i] -= lr * (mhat / (vhat.sqrt() + eps) + wd * pd[i]);
            }
        }
    }
}

/// Plain stochastic gradient descent (used by a few baselines and tests).
pub struct Sgd {
    lr: f32,
    weight_decay: f32,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Self { lr, weight_decay }
    }

    /// Applies one descent step.
    pub fn step(&self, store: &mut ParamStore, grads: &[GradEntry]) {
        for entry in grads {
            let p = store.value_mut(entry.id);
            let g = entry.grad.data();
            let wd = self.weight_decay;
            let lr = self.lr;
            for (pi, &gi) in p.data_mut().iter_mut().zip(g) {
                *pi -= lr * (gi + wd * *pi);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_add_lookup() {
        let mut s = ParamStore::new();
        let a = s.add("w", Matrix::zeros(2, 3));
        assert_eq!(s.id("w"), Some(a));
        assert_eq!(s.id("nope"), None);
        assert_eq!(s.num_scalars(), 6);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_name_panics() {
        let mut s = ParamStore::new();
        s.add("w", Matrix::zeros(1, 1));
        s.add("w", Matrix::zeros(1, 1));
    }

    #[test]
    fn adam_minimizes_quadratic() {
        // minimize f(x) = (x - 3)^2 elementwise.
        let mut store = ParamStore::new();
        let x = store.add("x", Matrix::zeros(1, 4));
        let mut adam = Adam::new(0.1, 0.0);
        for _ in 0..300 {
            let grad = store.value(x).map(|xi| 2.0 * (xi - 3.0));
            adam.step(&mut store, &[GradEntry { id: x, grad }]);
        }
        for &xi in store.value(x).data() {
            assert!((xi - 3.0).abs() < 0.05, "xi={xi}");
        }
    }

    #[test]
    fn sgd_minimizes_quadratic() {
        let mut store = ParamStore::new();
        let x = store.add("x", Matrix::full(1, 2, 5.0));
        let sgd = Sgd::new(0.1, 0.0);
        for _ in 0..200 {
            let grad = store.value(x).map(|xi| 2.0 * xi);
            sgd.step(&mut store, &[GradEntry { id: x, grad }]);
        }
        for &xi in store.value(x).data() {
            assert!(xi.abs() < 1e-3);
        }
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut store = ParamStore::new();
        let x = store.add("x", Matrix::full(1, 1, 1.0));
        let mut adam = Adam::new(0.01, 0.5);
        // Zero gradient: only decay acts.
        for _ in 0..50 {
            adam.step(&mut store, &[GradEntry { id: x, grad: Matrix::zeros(1, 1) }]);
        }
        assert!(store.value(x).get(0, 0) < 1.0);
    }

    #[test]
    fn end_to_end_tape_training() {
        // Learn w so that x.w matches a target, via the tape.
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::zeros(2, 1));
        let mut adam = Adam::new(0.05, 0.0);
        let x_data = Matrix::from_vec(4, 2, vec![1., 0., 0., 1., 1., 1., 2., 1.]);
        let y_data = Matrix::from_vec(4, 1, vec![2., -1., 1., 3.]); // w = [2, -1]
        for _ in 0..500 {
            let tape = Tape::new();
            let wv = store.bind(&tape, w);
            let x = tape.constant(x_data.clone());
            let y = tape.constant(y_data.clone());
            let pred = tape.matmul(x, wv);
            let err = tape.sub(pred, y);
            let sq = tape.square(err);
            let loss = tape.mean_all(sq);
            tape.backward(loss);
            let grads = collect_grads(&tape, &[(w, wv)]);
            adam.step(&mut store, &grads);
        }
        let wl = store.value(w);
        assert!((wl.get(0, 0) - 2.0).abs() < 0.05, "w0={}", wl.get(0, 0));
        assert!((wl.get(1, 0) + 1.0).abs() < 0.05, "w1={}", wl.get(1, 0));
    }
}
