#![warn(missing_docs)]
//! `hmts-shard`: key-partitioned operator sharding with an order-restoring
//! merge.
//!
//! The paper's HMTS scheduler parallelizes *across* operators: partitions
//! of the query graph run on different threads, but one stateful operator
//! instance is still capped at one core. This crate adds the orthogonal
//! axis — data parallelism *within* an operator — as a graph rewrite that
//! the rest of the engine does not need to know about:
//!
//! ```text
//!   pred ──▶ op ──▶ succ
//! ```
//! becomes
//! ```text
//!            ┌▶ op[0] ─┐
//!   pred ─▶ op.split ─▶ op[1] ─▶ op.merge ──▶ succ
//!            └▶ op[n-1]┘
//! ```
//!
//! * [`split::ShardSplit`] hashes each element's key ([`partitioner`])
//!   onto a replica and tags it with a dense arrival sequence number.
//! * [`replica::ShardReplica`] wraps a fresh copy of the operator
//!   ([`hmts_operators::traits::Operator::replicate`]); each replica is an
//!   ordinary L1 node — scheduled, re-balanced, checkpointed, and
//!   supervised like any other.
//! * [`merge::OrderedMerge`] re-emits results in splitter arrival order,
//!   making the sharded plan's output byte-identical to the unsharded one.
//!
//! [`rewrite::shard_by_name`] performs the rewrite;
//! [`rewrite::remap_partitioning`] carries an existing
//! [`hmts_graph::partition::Partitioning`] across it. Each rewrite
//! records the trio as a typed [`hmts_graph::ShardGroup`] on the graph,
//! which is how the engine and the admin plane find replicas. Node names
//! follow the [`names`] scheme (`op.split`, `op[i]`, `op.merge`) — the
//! only module in the workspace allowed to construct them.

pub mod merge;
pub mod names;
pub mod partitioner;
pub mod replica;
pub mod rewrite;
pub mod split;

pub use merge::OrderedMerge;
pub use partitioner::HashPartitioner;
pub use replica::ShardReplica;
pub use rewrite::{
    remap_partitioning, shard_by_name, shard_node, ShardError, ShardRewrite, ShardSpec,
};
pub use split::ShardSplit;

#[cfg(test)]
mod rewrite_tests {
    use std::time::Duration;

    use hmts_graph::graph::{NodeKind, QueryGraph};
    use hmts_graph::partition::Partitioning;
    use hmts_graph::topology::Topology;
    use hmts_operators::aggregate::{AggregateFunction, WindowAggregate};
    use hmts_operators::expr::Expr;
    use hmts_operators::filter::Filter;
    use hmts_operators::traits::{Operator, Source};
    use hmts_operators::SymmetricHashJoin;
    use hmts_streams::time::Timestamp;
    use hmts_streams::tuple::Tuple;

    use super::rewrite::{remap_partitioning, shard_by_name, ShardError, ShardSpec};
    use super::*;

    struct NullSource(&'static str);
    impl Source for NullSource {
        fn name(&self) -> &str {
            self.0
        }
        fn next(&mut self) -> Option<(Timestamp, Tuple)> {
            None
        }
    }

    fn agg() -> WindowAggregate {
        WindowAggregate::new("agg", AggregateFunction::Sum(1), Duration::from_secs(60))
            .group_by(Expr::field(0))
    }

    /// src → pre → agg → post
    fn chain() -> QueryGraph {
        let mut g = QueryGraph::new();
        let src = g.add_source(Box::new(NullSource("src")));
        let pre = g.add_operator(Box::new(Filter::new("pre", Expr::bool(true))));
        let a = g.add_operator(Box::new(agg()));
        let post = g.add_operator(Box::new(Filter::new("post", Expr::bool(true))));
        g.connect(src, pre);
        g.connect(pre, a);
        g.connect(a, post);
        g
    }

    #[test]
    fn rewrite_produces_split_replicas_merge() {
        let rw = shard_by_name(chain(), "agg", &ShardSpec::auto(3)).unwrap();
        let g = &rw.graph;
        assert_eq!(g.node_count(), 3 + 3 + 2); // src/pre/post + replicas + split/merge
        let sh = rw.group();
        assert_eq!(g.node(sh.split).name, names::split("agg"));
        assert_eq!(g.node(sh.merge).name, names::merge("agg"));
        for (i, r) in sh.replicas.iter().enumerate() {
            assert_eq!(g.node(*r).name, names::replica("agg", i));
        }
        // Wiring: pre→split, split→each replica (port 0, replica order),
        // replica i→merge port i, merge→post.
        let split_outs: Vec<_> = g.out_edges(sh.split).collect();
        assert_eq!(split_outs.len(), 3);
        for (i, e) in split_outs.iter().enumerate() {
            assert_eq!(e.to, sh.replicas[i], "route ordinal {i} must hit replica {i}");
            assert_eq!(e.to_port, 0);
        }
        for (i, r) in sh.replicas.iter().enumerate() {
            let outs: Vec<_> = g.out_edges(*r).collect();
            assert_eq!(outs.len(), 1);
            assert_eq!(outs[0].to, sh.merge);
            assert_eq!(outs[0].to_port, i);
        }
        assert_eq!(g.in_edges(sh.split).count(), 1);
        assert_eq!(g.out_edges(sh.merge).count(), 1);
        // Still a DAG; replica 0 kept the original operator's identity.
        assert!(g.topological_order().is_some());
        match &g.node(sh.replicas[0]).kind {
            NodeKind::Operator(op) => assert_eq!(op.name(), names::replica("agg", 0)),
            NodeKind::Source(_) => panic!("replica is an operator"),
        }
    }

    #[test]
    fn rewrite_rejects_bad_targets() {
        assert!(matches!(
            shard_by_name(chain(), "nope", &ShardSpec::auto(2)),
            Err(ShardError::NotFound(_))
        ));
        assert!(matches!(
            shard_by_name(chain(), "src", &ShardSpec::auto(2)),
            Err(ShardError::NotOperator(_))
        ));
        // `pre` is a Filter with no shard key of its own.
        assert!(matches!(
            shard_by_name(chain(), "pre", &ShardSpec::auto(2)),
            Err(ShardError::NoKey(_))
        ));
        // But an explicit key makes any replicable unary operator eligible.
        assert!(shard_by_name(chain(), "pre", &ShardSpec::on_key(2, Expr::field(0))).is_ok());
        // Multi-input operators are rejected (see ShardError::NotUnary).
        let mut g = QueryGraph::new();
        let a = g.add_source(Box::new(NullSource("a")));
        let b = g.add_source(Box::new(NullSource("b")));
        let j =
            g.add_operator(Box::new(SymmetricHashJoin::on_field("j", 0, Duration::from_secs(1))));
        g.connect(a, j);
        g.connect(b, j);
        assert!(matches!(
            shard_by_name(g, "j", &ShardSpec::auto(2)),
            Err(ShardError::NotUnary { arity: 2, .. })
        ));
    }

    /// A second rewrite keeps the first one's group, with its ids moved
    /// to the new graph, and both groups reach the engine's [`Topology`].
    #[test]
    fn second_rewrite_remaps_recorded_groups() {
        let rw1 = shard_by_name(chain(), "agg", &ShardSpec::auto(2)).unwrap();
        let rw2 = shard_by_name(rw1.graph, "pre", &ShardSpec::on_key(3, Expr::field(0))).unwrap();
        let g = &rw2.graph;
        let topo = Topology::of(g);
        let groups = topo.shard_groups();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups, g.shard_groups());

        let agg = &groups[0];
        assert_eq!(agg.logical, "agg");
        assert_eq!(g.node(agg.split).name, names::split("agg"));
        assert_eq!(g.node(agg.merge).name, names::merge("agg"));
        let replicas: Vec<&str> = agg.replicas.iter().map(|&r| g.node(r).name.as_str()).collect();
        assert_eq!(replicas, ["agg[0]", "agg[1]"]);

        let pre = &groups[1];
        assert_eq!(pre, rw2.group());
        assert_eq!(pre.logical, "pre");
        assert_eq!(g.node(pre.split).name, names::split("pre"));
        assert_eq!(pre.replicas.len(), 3);
        assert_eq!(g.out_edges(pre.merge).next().map(|e| e.to), Some(agg.split));

        let (decomposed, _) = rw2.graph.decompose();
        assert_eq!(decomposed.shard_groups(), groups);
    }

    #[test]
    fn partitioning_remap_places_trio_for_parallelism() {
        let g = chain();
        let ids: std::collections::HashMap<String, _> =
            g.nodes().iter().map(|n| (n.name.clone(), n.id)).collect();
        let p = Partitioning::new(vec![vec![ids["pre"]], vec![ids["agg"], ids["post"]]]);
        let rw = shard_by_name(g, "agg", &ShardSpec::auto(2)).unwrap();
        let sh = rw.group().clone();
        let remapped = remap_partitioning(&p, &rw);
        // pre's group gained the splitter; agg's group swapped agg→merge;
        // each replica is a singleton group.
        let groups = remapped.groups();
        assert_eq!(groups.len(), 2 + 2);
        let pre_new = rw.node_map[&ids["pre"]];
        let post_new = rw.node_map[&ids["post"]];
        assert!(groups.iter().any(|g| g.contains(&pre_new) && g.contains(&sh.split)));
        assert!(groups.iter().any(|g| g.contains(&sh.merge) && g.contains(&post_new)));
        for r in &sh.replicas {
            assert!(groups.iter().any(|g| g == &vec![*r]));
        }
        // The remapped partitioning is valid for the rewritten graph —
        // including the strict weak-connectivity check.
        let errors = remapped.validate(&rw.graph);
        assert!(errors.is_empty(), "remapped partitioning invalid: {errors:?}");
    }
}
