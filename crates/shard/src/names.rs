//! The naming scheme of rewritten shard nodes.
//!
//! This module is the *only* place in the workspace that constructs shard
//! node names (a grep gate in `scripts/check.sh` enforces it). The names
//! matter because checkpoint blobs are keyed by node name, so a recovered
//! run must mint the same ones. Which nodes form a group is not read back
//! from the names: the rewrite records it as a typed
//! [`hmts_graph::ShardGroup`] on the graph. [`parse_replica`] remains for
//! tools and tests that start from a name.

/// The name of replica `i` of the sharded operator `base`.
pub fn replica(base: &str, i: usize) -> String {
    format!("{base}[{i}]")
}

/// The name of the hash-partitioning splitter in front of `base`'s
/// replicas.
pub fn split(base: &str) -> String {
    format!("{base}.split")
}

/// The name of the order-restoring merge behind `base`'s replicas.
pub fn merge(base: &str) -> String {
    format!("{base}.merge")
}

/// Decomposes a replica name into `(base, index)`; `None` for anything
/// that does not look like `base[i]` with `i` written in ASCII digits.
pub fn parse_replica(name: &str) -> Option<(&str, usize)> {
    let (base, index) = name.strip_suffix(']')?.rsplit_once('[')?;
    if base.is_empty() || index.is_empty() || !index.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((base, index.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_parse_round_trip() {
        assert_eq!(replica("agg", 3), "agg[3]");
        assert_eq!(split("agg"), "agg.split");
        assert_eq!(merge("agg"), "agg.merge");
        assert_eq!(parse_replica("agg[3]"), Some(("agg", 3)));
        assert_eq!(parse_replica(&replica("a.b", 12)), Some(("a.b", 12)));
    }

    #[test]
    fn parse_rejects_non_replicas() {
        assert_eq!(parse_replica("agg[0]"), Some(("agg", 0)));
        assert_eq!(parse_replica("a.b[12]"), Some(("a.b", 12)));
        assert_eq!(parse_replica("agg"), None);
        assert_eq!(parse_replica("agg.split"), None);
        assert_eq!(parse_replica("agg[]"), None);
        assert_eq!(parse_replica("agg[x]"), None);
        assert_eq!(parse_replica("[3]"), None);
        assert_eq!(parse_replica("agg[3"), None);
        assert_eq!(parse_replica("agg[1"), None);
        assert_eq!(parse_replica("agg1]"), None);
        // `usize::from_str` would take a sign; a replica index never has one.
        assert_eq!(parse_replica("agg[+3]"), None);
        assert_eq!(parse_replica("agg[-3]"), None);
    }
}
