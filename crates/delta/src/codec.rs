//! Canonical encoding and content keys for deltas (and everything else).
//!
//! The canonical-JSON renderer and the FNV-1a content hash used to live
//! in the serve codec; they moved here so the delta key derivation —
//! which must agree byte-for-byte between clients, servers and the
//! bench harness — has one home with no serve dependency. Serve
//! re-exports both, so `rfid_serve::codec::{canonical_json, fnv1a64}`
//! keep working.
//!
//! A delta request names its scenario as `{base, ops}`: the base's
//! content key plus an op list. [`derived_key`] chains a new 64-bit key
//! off the base key by hashing the base's fixed-width hex form, a `|`
//! separator and the canonical JSON of the op list — computable by
//! anyone who knows the base *key* (no need for the base scenario), and
//! associative in the sense that distinct `(base, ops)` pairs get
//! distinct keys with FNV's usual collision odds.

use crate::ops::ScenarioDelta;
use serde::Serialize;

/// Renders any serialisable value as canonical JSON: compact, with every
/// object's keys sorted (stably, byte-wise). Two semantically equal
/// content trees always produce byte-identical text.
pub fn canonical_json<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string_sorted(value).expect("canonical render cannot fail")
}

/// 64-bit FNV-1a — the content hash behind every cache key. Hand-rolled
/// so the key is stable across platforms, processes and Rust versions
/// (unlike `DefaultHasher`, which is seeded per process).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Renders a content key in the fixed-width hex form used on the wire.
pub fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

/// Parses a fixed-width hex key back to its 64-bit value.
pub fn parse_key_hex(hex: &str) -> Option<u64> {
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// The content key of "the base scenario named by `base_key`, edited by
/// `ops`": FNV-1a over `<base hex>|<canonical ops JSON>`.
pub fn derived_key(base_key: u64, ops: &[ScenarioDelta]) -> u64 {
    let text = format!("{}|{}", key_hex(base_key), canonical_json(ops));
    fnv1a64(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn canonical_json_sorts_keys_at_every_depth() {
        let v: serde_json::Value =
            serde_json::from_str(r#"{"b":1,"a":{"z":[{"y":2,"x":3}],"w":4}}"#).unwrap();
        assert_eq!(
            canonical_json(&v),
            r#"{"a":{"w":4,"z":[{"x":3,"y":2}]},"b":1}"#
        );
    }

    #[test]
    fn key_hex_round_trips() {
        for key in [0u64, 1, 0xdead_beef_cafe_f00d, u64::MAX] {
            assert_eq!(parse_key_hex(&key_hex(key)), Some(key));
        }
        assert_eq!(parse_key_hex("xyz"), None);
        assert_eq!(parse_key_hex("00"), None);
        assert_eq!(parse_key_hex("zzzzzzzzzzzzzzzz"), None);
    }

    #[test]
    fn derived_keys_chain_off_base_and_ops() {
        let ops_a = vec![ScenarioDelta::AddTag { x: 1.0, y: 2.0 }];
        let ops_b = vec![ScenarioDelta::AddTag { x: 1.0, y: 2.5 }];
        let k = derived_key(42, &ops_a);
        assert_ne!(k, derived_key(43, &ops_a), "base key must matter");
        assert_ne!(k, derived_key(42, &ops_b), "ops must matter");
        assert_eq!(k, derived_key(42, &ops_a.clone()), "deterministic");
        // Chaining: a second hop derives off the first derived key.
        let k2 = derived_key(k, &ops_b);
        assert_ne!(k2, k);
    }
}
