//! The sharding graph rewrite: node → splitter + N replicas + merge.

use std::collections::HashMap;

use hmts_graph::graph::{NodeId, NodeKind, QueryGraph, ShardGroup};
use hmts_graph::partition::Partitioning;
use hmts_operators::expr::Expr;
use hmts_operators::traits::Operator;

use crate::merge::OrderedMerge;
use crate::names;
use crate::replica::ShardReplica;
use crate::split::ShardSplit;

/// How to shard one node.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Number of replicas (≥ 1).
    pub n: usize,
    /// The partitioning key; `None` defers to the operator's own
    /// [`Operator::shard_key`].
    pub key: Option<Expr>,
}

impl ShardSpec {
    /// Shard `n` ways on the operator's declared key.
    pub fn auto(n: usize) -> ShardSpec {
        ShardSpec { n, key: None }
    }

    /// Shard `n` ways on an explicit key expression.
    pub fn on_key(n: usize, key: Expr) -> ShardSpec {
        ShardSpec { n, key: Some(key) }
    }
}

/// Why a node could not be sharded.
#[derive(Debug)]
pub enum ShardError {
    /// No node with the given name exists.
    NotFound(String),
    /// The target is a source, not an operator.
    NotOperator(String),
    /// The target is multi-input. Sharding a join needs one splitter per
    /// input sharing a sequence counter, whose snapshots an aligned
    /// checkpoint would cut at different barrier positions — restoring
    /// them would tear the dense-sequence invariant the merge relies on.
    /// Unary only until cross-splitter sequencing exists (DESIGN.md §12).
    NotUnary {
        /// The target node's name.
        name: String,
        /// Its declared input arity.
        arity: usize,
    },
    /// The target must have exactly one incoming edge.
    AmbiguousInput {
        /// The target node's name.
        name: String,
        /// How many in-edges it actually has.
        in_edges: usize,
    },
    /// No key: the spec gave none and the operator declares none.
    NoKey(String),
    /// The operator cannot produce fresh replicas of itself.
    NotReplicable(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::NotFound(n) => write!(f, "shard: no node named '{n}'"),
            ShardError::NotOperator(n) => write!(f, "shard: '{n}' is a source, not an operator"),
            ShardError::NotUnary { name, arity } => {
                write!(f, "shard: '{name}' has {arity} inputs; only unary operators shard")
            }
            ShardError::AmbiguousInput { name, in_edges } => {
                write!(f, "shard: '{name}' has {in_edges} in-edges; exactly one required")
            }
            ShardError::NoKey(n) => {
                write!(f, "shard: '{n}' declares no shard key and none was given")
            }
            ShardError::NotReplicable(n) => write!(f, "shard: '{n}' cannot be replicated"),
        }
    }
}

impl std::error::Error for ShardError {}

/// The result of one sharding rewrite.
pub struct ShardRewrite {
    /// The rewritten graph; the last of its shard groups is the trio that
    /// replaced the target ([`ShardRewrite::group`]).
    pub graph: QueryGraph,
    /// Old id → new id for every surviving (unsharded) node.
    pub node_map: HashMap<NodeId, NodeId>,
    /// Old id of the sharded node.
    pub target: NodeId,
}

impl ShardRewrite {
    /// The splitter, replicas and merge that replaced the target (new
    /// graph ids).
    pub fn group(&self) -> &ShardGroup {
        self.graph.shard_groups().last().expect("every rewrite records its group")
    }
}

/// Rewrites `name` in `graph` according to `spec`. Consumes the graph:
/// node ids are only meaningful per graph, so the rewrite returns a fresh
/// one plus the id mappings. Apply repeatedly to shard several nodes.
pub fn shard_by_name(
    graph: QueryGraph,
    name: &str,
    spec: &ShardSpec,
) -> Result<ShardRewrite, ShardError> {
    let target = graph
        .nodes()
        .iter()
        .find(|n| n.name == name)
        .map(|n| n.id)
        .ok_or_else(|| ShardError::NotFound(name.to_string()))?;
    shard_node(graph, target, spec)
}

/// Rewrites node `target` in `graph` according to `spec`.
pub fn shard_node(
    graph: QueryGraph,
    target: NodeId,
    spec: &ShardSpec,
) -> Result<ShardRewrite, ShardError> {
    let name = graph.node(target).name.clone();
    let op = match &graph.node(target).kind {
        NodeKind::Source(_) => return Err(ShardError::NotOperator(name)),
        NodeKind::Operator(op) => op,
    };
    if op.input_arity() != 1 {
        return Err(ShardError::NotUnary { name, arity: op.input_arity() });
    }
    let in_edges: Vec<_> = graph.in_edges(target).copied().collect();
    if in_edges.len() != 1 {
        return Err(ShardError::AmbiguousInput { name, in_edges: in_edges.len() });
    }
    let pred_old = in_edges[0].from;
    let key = match spec.key.clone().or_else(|| op.shard_key(0)) {
        Some(k) => k,
        None => return Err(ShardError::NoKey(name)),
    };
    let n = spec.n.max(1);
    // Mint the n−1 fresh replicas while the original is still borrowed;
    // the original operator itself becomes replica 0, keeping its hints
    // and (on a replan) its accumulated state.
    let mut fresh: Vec<Box<dyn Operator>> = Vec::with_capacity(n.saturating_sub(1));
    for _ in 1..n {
        fresh.push(op.replicate().ok_or_else(|| ShardError::NotReplicable(name.clone()))?);
    }

    let out_edges: Vec<_> = graph.out_edges(target).copied().collect();
    let old_edges: Vec<_> = graph.edges().to_vec();
    let old_groups: Vec<ShardGroup> = graph.shard_groups().to_vec();

    // Rebuild the graph: surviving nodes first (in old id order, keeping
    // names stable), then the trio.
    let mut new = QueryGraph::new();
    let mut node_map = HashMap::new();
    let mut original: Option<Box<dyn Operator>> = None;
    for node in graph.into_nodes() {
        if node.id == target {
            match node.kind {
                NodeKind::Operator(op) => original = Some(op),
                NodeKind::Source(_) => unreachable!("checked above"),
            }
            continue;
        }
        let new_id = match node.kind {
            NodeKind::Source(s) => new.add_source(s),
            NodeKind::Operator(op) => new.add_operator(op),
        };
        node_map.insert(node.id, new_id);
    }
    let original = original.expect("target taken from graph");

    let split = new.add_operator(Box::new(ShardSplit::new(names::split(&name), key, n)));
    let mut inner_ops: Vec<Box<dyn Operator>> = Vec::with_capacity(n);
    inner_ops.push(original);
    inner_ops.extend(fresh);
    let mut replicas = Vec::with_capacity(n);
    for (i, inner) in inner_ops.into_iter().enumerate() {
        let id = new.add_operator(Box::new(ShardReplica::new(names::replica(&name, i), inner)));
        replicas.push(id);
    }
    let merge = new.add_operator(Box::new(OrderedMerge::new(names::merge(&name), n)));

    // Edges. The splitter's out-edges are created in replica index order —
    // the executor's route ordinal is the out-edge position, so this IS
    // the routing table.
    for e in &old_edges {
        if e.from == target || e.to == target {
            continue;
        }
        new.connect_port(node_map[&e.from], node_map[&e.to], e.to_port);
    }
    new.connect_port(node_map[&pred_old], split, 0);
    for (i, r) in replicas.iter().enumerate() {
        new.connect_port(split, *r, 0);
        new.connect_port(*r, merge, i);
    }
    for e in &out_edges {
        new.connect_port(merge, node_map[&e.to], e.to_port);
    }

    // Groups of earlier rewrites carry over with remapped ids; one that
    // contains the target itself no longer exists as recorded.
    for g in old_groups {
        let map = |id: &NodeId| node_map.get(id).copied();
        let replicas: Option<Vec<NodeId>> = g.replicas.iter().map(map).collect();
        if let (Some(split), Some(replicas), Some(merge)) = (map(&g.split), replicas, map(&g.merge))
        {
            new.add_shard_group(ShardGroup { logical: g.logical, split, replicas, merge });
        }
    }
    new.add_shard_group(ShardGroup { logical: name, split, replicas, merge });
    Ok(ShardRewrite { graph: new, node_map, target })
}

/// Carries a [`Partitioning`] over a rewrite:
///
/// * surviving nodes keep their groups (ids remapped),
/// * the merge takes the sharded node's place in its old group (so the
///   merge→successor edges stay intra-partition where the original's
///   were),
/// * the splitter joins its producer's group when the producer is a
///   grouped operator (no queue on the hot pred→split hop), else gets its
///   own group,
/// * every replica becomes a singleton group — a full L1 node the
///   scheduler partitions, the adaptive controller re-balances, and the
///   supervisor restarts like any other; the split→replica and
///   replica→merge edges cross partitions and therefore get queues, which
///   is exactly what makes the replicas run in parallel.
pub fn remap_partitioning(p: &Partitioning, rw: &ShardRewrite) -> Partitioning {
    let sh = rw.group();
    let mut groups: Vec<Vec<NodeId>> = p
        .groups()
        .iter()
        .map(|g| {
            g.iter()
                .filter_map(|id| {
                    if *id == rw.target {
                        Some(sh.merge)
                    } else {
                        rw.node_map.get(id).copied()
                    }
                })
                .collect()
        })
        .collect();
    let producer = rw.graph.in_edges(sh.split).next().map(|e| e.from);
    match producer.and_then(|p| groups.iter_mut().find(|g| g.contains(&p))) {
        Some(g) => g.push(sh.split),
        None => groups.push(vec![sh.split]),
    }
    for r in &sh.replicas {
        groups.push(vec![*r]);
    }
    groups.retain(|g| !g.is_empty());
    Partitioning::new(groups)
}
