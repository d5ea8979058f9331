//! Deliberately *clean* counterpart to the `bad_concurrency` trees: every
//! pattern here skirts close to a determinism rule but is order-safe, so
//! the whole file must lint with zero findings under all rules. Not part of
//! the workspace walk; linted only via `--lint-dir` and the audit crate's
//! own tests.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Mutex;
use std::time::Instant;

/// BTree iteration is canonically ordered — never flagged.
pub fn btree_iteration(scores: &BTreeMap<u64, f32>) -> Vec<f32> {
    let mut out = Vec::new();
    for (_, s) in scores.iter() {
        out.push(*s);
    }
    out
}

/// Keyed lookup never observes iteration order.
pub fn hash_lookup(counts: &HashMap<u64, u64>, key: u64) -> u64 {
    counts.get(&key).copied().unwrap_or(0)
}

/// `count` is an order-insensitive sink.
pub fn hash_count(counts: &HashMap<u64, u64>) -> usize {
    counts.values().count()
}

/// Hash keys are snapshotted and restored to canonical order before use.
pub fn sorted_keys(members: &HashSet<u64>) -> Vec<u64> {
    let mut keys: Vec<u64> = members.iter().copied().collect();
    keys.sort_unstable();
    keys
}

/// Order genuinely does not matter here, and the annotation says why.
pub fn annotated_fold(members: &HashSet<u64>, acc: &mut u64) {
    // #[allow(kucnet::unordered_iter)] — wrapping add is commutative, so every
    // iteration order produces the same accumulator.
    for v in members.iter() {
        *acc = acc.wrapping_add(*v);
    }
}

/// A sequential integer fold has no par context and no float accumulator.
pub fn plain_fold(xs: &[u64]) -> u64 {
    xs.iter().fold(0, |a, b| a + b)
}

/// Timing instrumentation is not an entropy source (no seed is derived).
pub fn timed_len(xs: &[u64]) -> (usize, u128) {
    let start = Instant::now();
    let n = xs.len();
    (n, start.elapsed().as_nanos())
}

/// Two locks, one global acquisition order everywhere.
pub struct Consistent {
    first: Mutex<Vec<u64>>,
    second: Mutex<u64>,
}

impl Consistent {
    /// Takes `first` then `second`.
    pub fn record(&self, v: u64) {
        if let Ok(mut f) = self.first.lock() {
            if let Ok(mut s) = self.second.lock() {
                f.push(v);
                *s += 1;
            }
        }
    }

    /// Also takes `first` then `second` — same order, no cycle.
    pub fn snapshot(&self) -> u64 {
        if let Ok(f) = self.first.lock() {
            if let Ok(s) = self.second.lock() {
                return *s + f.len() as u64;
            }
        }
        0
    }
}

/// A `tanh` method taking an argument (like `Tape::tanh`), a `tanh`
/// field and the workspace kernel's path: none of them is the host libm.
pub struct Activations {
    tanh: fn(f32) -> f32,
}

impl Activations {
    /// Builds the table around the workspace kernel.
    pub fn kernel() -> Self {
        Self { tanh: kucnet_tensor::tanh }
    }

    /// Calls the stored activation.
    pub fn tanh(&self, x: f32) -> f32 {
        (self.tanh)(x)
    }

    /// A one-argument `.tanh(x)` call, not the zero-argument libm form.
    pub fn apply(&self, x: f32) -> f32 {
        self.tanh(x)
    }
}
