//! The key-indexed map of the operators that keep per-key state across
//! windows: `temporal_join`'s buffered sides and `followed_by`'s open
//! matches. (`reduce_by_key` and `group_aggregate` group per window, in
//! [`super::group`]'s table.)
//!
//! Events carry `hash = hash_key(key)`, computed once at ingress (§VI-C);
//! [`KeyMap`] indexes by that same function instead of re-hashing each
//! `u32` key with std's SipHash. Nothing observable depends on the
//! hasher: both operators sort their keys before encoding a checkpoint.

use impatience_core::hash_key;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` from grouping key to `V`, hashed with [`hash_key`].
pub(crate) type KeyMap<V> = HashMap<u32, V, BuildHasherDefault<KeyHasher>>;

/// An empty [`KeyMap`] with room for `n` keys.
pub(crate) fn key_map_with_capacity<V>(n: usize) -> KeyMap<V> {
    KeyMap::with_capacity_and_hasher(n, BuildHasherDefault::default())
}

/// [`hash_key`] as a [`Hasher`].
#[derive(Clone, Copy, Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn write_u32(&mut self, key: u32) {
        self.0 = hash_key(key);
    }

    /// `u32` keys never come this way; kept total for the trait's sake.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = hash_key((self.0 as u32).rotate_left(8) ^ u32::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hasher_is_hash_key() {
        let mut h = KeyHasher::default();
        h.write_u32(42);
        assert_eq!(h.finish(), hash_key(42));
        let mut map: KeyMap<&str> = key_map_with_capacity(2);
        map.insert(u32::MAX, "max");
        map.insert(0, "zero");
        assert_eq!(map.get(&u32::MAX), Some(&"max"));
        assert_eq!(map.get(&0), Some(&"zero"));
        assert_eq!(map.get(&1), None);
    }
}
