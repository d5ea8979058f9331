//! Strongly-typed identifiers for the collaborative knowledge graph.
//!
//! The CKG node space is laid out as `users | items | entities` so that a
//! single `u32` [`NodeId`] addresses any node while [`UserId`], [`ItemId`] and
//! [`EntityId`] keep the domain-level APIs honest.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

/// A multiplicative hasher for integer ids, for maps that are only looked
/// up, never iterated. Each written integer is added to the state and
/// multiplied by an odd constant; `finish` rotates the well-mixed high bits
/// down to where the table takes its bucket index.
#[derive(Clone, Copy, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

/// A `HashMap` keyed by ids through [`IdHasher`].
pub(crate) type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Index of a user in `0..n_users`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct UserId(pub u32);

/// Index of an item in `0..n_items`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ItemId(pub u32);

/// Index of a (non-item) KG entity in `0..n_entities`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EntityId(pub u32);

/// Global node index in the CKG (`users | items | entities` layout).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Directed relation index. Base relations occupy `0..n_base`; the reverse of
/// relation `r` is `r + n_base`; the self-loop relation is `2 * n_base`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RelId(pub u32);

impl RelId {
    /// The user–item "interact" relation is always relation 0.
    pub const INTERACT: RelId = RelId(0);
}

/// Converts a `usize` index into the `u32` id space used by [`NodeId`],
/// [`RelId`] and the CSR position arrays.
///
/// This is the single sanctioned funnel for narrowing casts in the graph
/// crates: the audit linter rejects bare `as u32` so that silent truncation
/// cannot corrupt ids, and this helper turns overflow into a loud panic
/// naming the quantity that overflowed.
///
/// # Panics
/// Panics when `value` does not fit in a `u32`.
pub fn index_u32(value: usize, what: &str) -> u32 {
    u32::try_from(value)
        // audit: allow(no-panic) — the one audited narrowing funnel; an index
        // beyond u32::MAX means the graph no longer fits the id space at all.
        .unwrap_or_else(|_| panic!("{what} {value} exceeds the u32 id space"))
}

/// What kind of node a [`NodeId`] refers to, resolved against a CKG layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// A user node, with its [`UserId`].
    User(UserId),
    /// An item node, with its [`ItemId`].
    Item(ItemId),
    /// A pure KG entity node, with its [`EntityId`].
    Entity(EntityId),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interact_is_relation_zero() {
        assert_eq!(RelId::INTERACT, RelId(0));
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(NodeId(3));
        s.insert(NodeId(3));
        assert_eq!(s.len(), 1);
        assert!(UserId(1) < UserId(2));
    }
}
