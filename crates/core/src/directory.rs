//! The resource directory: which node stores which key.

use faultline_metric::{Key, Position};
use faultline_overlay::NodeId;
#[expect(
    clippy::disallowed_types,
    reason = "the directory is a keyed store; its iterators feed order-insensitive operations only (each orphaned key re-homes independently, callers that surface lists sort them)"
)]
use std::collections::HashMap;

// An alias, so that the derives below name it rather than `HashMap` itself.
#[expect(
    clippy::disallowed_types,
    reason = "keyed get/insert/remove; iteration order cannot reach results: re-homing is per-key commutative and `iter` is documented arbitrary-order"
)]
type Entries = HashMap<Key, StoredResource>;

/// A stored resource: the value plus the node that currently holds it.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StoredResource {
    /// The metric-space point the key hashes to.
    pub point: Position,
    /// The node the resource was placed on (the alive node closest to `point` at insert
    /// time — the paper's `owner(r)` after embedding).
    pub home: NodeId,
    /// The stored bytes.
    pub value: Vec<u8>,
}

/// An in-memory directory of stored resources, keyed by resource key.
///
/// The directory models the union of all per-node storage: each entry remembers which
/// node holds the value, so a lookup succeeds only if greedy routing actually reaches
/// that node (and it is still alive). There is no replication — losing a node loses its
/// resources, exactly as in the paper's model where the repair mechanism restores links,
/// not data.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Directory {
    entries: Entries,
}

impl Directory {
    /// Creates an empty directory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored resources.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Stores (or replaces) a resource. Returns the previous entry, if any.
    pub fn insert(&mut self, key: Key, resource: StoredResource) -> Option<StoredResource> {
        self.entries.insert(key, resource)
    }

    /// Looks up a resource by key.
    #[must_use]
    pub fn get(&self, key: &Key) -> Option<&StoredResource> {
        self.entries.get(key)
    }

    /// Removes a resource by key.
    pub fn remove(&mut self, key: &Key) -> Option<StoredResource> {
        self.entries.remove(key)
    }

    /// Iterates over `(key, resource)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &StoredResource)> {
        self.entries.iter()
    }

    /// All keys homed on the given node (used when a node departs and its resources are
    /// lost or need re-homing by a higher layer).
    #[must_use]
    pub fn keys_homed_on(&self, node: NodeId) -> Vec<Key> {
        self.entries
            .iter()
            .filter(|(_, r)| r.home == node)
            .map(|(k, _)| *k)
            .collect()
    }

    /// Re-homes a single resource to `to`. Returns `false` if the key is not stored.
    ///
    /// This is the primitive departures use: each orphaned key moves to the node
    /// responsible for *its* point, so keys that shared a home scatter independently.
    pub fn rehome_key(&mut self, key: &Key, to: NodeId) -> bool {
        match self.entries.get_mut(key) {
            Some(resource) => {
                resource.home = to;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resource(point: Position, home: NodeId, value: &[u8]) -> StoredResource {
        StoredResource {
            point,
            home,
            value: value.to_vec(),
        }
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut dir = Directory::new();
        assert!(dir.is_empty());
        let key = Key::from_name("song.mp3");
        assert!(dir.insert(key, resource(5, 5, b"bytes")).is_none());
        assert_eq!(dir.len(), 1);
        assert_eq!(dir.get(&key).unwrap().value, b"bytes");
        let replaced = dir.insert(key, resource(5, 6, b"new"));
        assert_eq!(replaced.unwrap().value, b"bytes");
        assert_eq!(dir.remove(&key).unwrap().home, 6);
        assert!(dir.get(&key).is_none());
    }

    #[test]
    fn homed_keys_and_rehoming() {
        let mut dir = Directory::new();
        let a = Key::from_name("a");
        let b = Key::from_name("b");
        let c = Key::from_name("c");
        dir.insert(a, resource(1, 10, b"A"));
        dir.insert(b, resource(2, 10, b"B"));
        dir.insert(c, resource(3, 20, b"C"));
        let mut homed = dir.keys_homed_on(10);
        homed.sort();
        let mut expected = vec![a, b];
        expected.sort();
        assert_eq!(homed, expected);
        // Keys that shared a home re-home independently.
        assert!(dir.rehome_key(&a, 30));
        assert!(dir.rehome_key(&b, 40));
        assert!(!dir.rehome_key(&Key::from_name("missing"), 30));
        assert!(dir.keys_homed_on(10).is_empty());
        assert_eq!(dir.keys_homed_on(30), vec![a]);
        assert_eq!(dir.keys_homed_on(40), vec![b]);
        assert_eq!(dir.iter().count(), 3);
    }
}
