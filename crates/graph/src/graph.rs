//! The query graph: a DAG of sources, operators, and sinks.
//!
//! Paper §2.1: a query graph is a directed acyclic graph whose nodes are
//! sources, operators, and sinks, and whose edges represent data flow.
//! Multiple continuous queries are unified into one graph to enable
//! subquery sharing. Here, sinks are simply operators with no outgoing
//! edges (collecting/counting sinks from `hmts-operators`), so a node is
//! either a [`NodeKind::Source`] or a [`NodeKind::Operator`].

use std::fmt;

use hmts_operators::traits::{Operator, Source};

/// Identifier of a node within one [`QueryGraph`]. Indices are dense and
/// stable (nodes are never removed; re-partitioning changes queue placement,
/// not the graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a node contains.
pub enum NodeKind {
    /// An autonomous data source.
    Source(Box<dyn Source>),
    /// A push-based operator (including sinks, which have no out-edges).
    Operator(Box<dyn Operator>),
}

impl NodeKind {
    /// Whether this node is a source.
    pub fn is_source(&self) -> bool {
        matches!(self, NodeKind::Source(_))
    }
}

/// A node of the query graph.
pub struct Node {
    /// The node's identifier.
    pub id: NodeId,
    /// Diagnostic name (unique within the graph).
    pub name: String,
    /// The payload.
    pub kind: NodeKind,
}

impl Node {
    /// The operator's declared input arity (sources have zero).
    pub fn input_arity(&self) -> usize {
        match &self.kind {
            NodeKind::Source(_) => 0,
            NodeKind::Operator(op) => op.input_arity(),
        }
    }
}

/// A directed edge: data flows from `from` into input port `to_port` of
/// `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Producing node.
    pub from: NodeId,
    /// Consuming node.
    pub to: NodeId,
    /// Input port of the consuming node this edge feeds.
    pub to_port: usize,
}

/// One operator replaced by the sharding rewrite, recorded on the graph so
/// later layers know which nodes form the group without reading names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardGroup {
    /// Name of the operator before the rewrite (e.g. `agg`).
    pub logical: String,
    /// The hash-partitioning splitter.
    pub split: NodeId,
    /// The replicas, shard index order.
    pub replicas: Vec<NodeId>,
    /// The order-restoring merge.
    pub merge: NodeId,
}

/// A continuous-query graph.
///
/// The graph owns its sources and operators. Structural queries
/// (successors, topological order, …) never require the payloads, so the
/// scheduling and placement layers can analyse the graph while the engine
/// owns the operators.
#[derive(Default)]
pub struct QueryGraph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    shard_groups: Vec<ShardGroup>,
}

impl QueryGraph {
    /// An empty graph.
    pub fn new() -> QueryGraph {
        QueryGraph::default()
    }

    /// Adds a source node; the name is taken from the source, deduplicated
    /// with the node index if necessary.
    pub fn add_source(&mut self, source: Box<dyn Source>) -> NodeId {
        let id = NodeId(self.nodes.len());
        let name = self.unique_name(source.name());
        self.nodes.push(Node { id, name, kind: NodeKind::Source(source) });
        id
    }

    /// Adds an operator node.
    pub fn add_operator(&mut self, op: Box<dyn Operator>) -> NodeId {
        let id = NodeId(self.nodes.len());
        let name = self.unique_name(op.name());
        self.nodes.push(Node { id, name, kind: NodeKind::Operator(op) });
        id
    }

    fn unique_name(&self, base: &str) -> String {
        if self.nodes.iter().any(|n| n.name == base) {
            format!("{}#{}", base, self.nodes.len())
        } else {
            base.to_string()
        }
    }

    /// Connects `from` to the next free input port of `to`.
    pub fn connect(&mut self, from: NodeId, to: NodeId) -> Edge {
        let port = self.in_edges(to).count();
        self.connect_port(from, to, port)
    }

    /// Connects `from` to a specific input port of `to`.
    pub fn connect_port(&mut self, from: NodeId, to: NodeId, to_port: usize) -> Edge {
        let e = Edge { from, to, to_port };
        self.edges.push(e);
        e
    }

    /// Records a sharded operator's node group (see [`ShardGroup`]).
    pub fn add_shard_group(&mut self, group: ShardGroup) {
        self.shard_groups.push(group);
    }

    /// The sharded operators recorded by sharding rewrites, in order.
    pub fn shard_groups(&self) -> &[ShardGroup] {
        &self.shard_groups
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The node with the given id. Panics on a foreign id — node ids are
    /// only meaningful for the graph that created them.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Edges leaving `id`.
    pub fn out_edges(&self, id: NodeId) -> impl Iterator<Item = &Edge> {
        self.edges.iter().filter(move |e| e.from == id)
    }

    /// Edges entering `id`.
    pub fn in_edges(&self, id: NodeId) -> impl Iterator<Item = &Edge> {
        self.edges.iter().filter(move |e| e.to == id)
    }

    /// Successor node ids of `id` (with duplicates if parallel edges exist).
    pub fn successors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges(id).map(|e| e.to)
    }

    /// Predecessor node ids of `id`.
    pub fn predecessors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_edges(id).map(|e| e.from)
    }

    /// Ids of all source nodes.
    pub fn sources(&self) -> Vec<NodeId> {
        self.nodes.iter().filter(|n| n.kind.is_source()).map(|n| n.id).collect()
    }

    /// Ids of all operator (non-source) nodes.
    pub fn operators(&self) -> Vec<NodeId> {
        self.nodes.iter().filter(|n| !n.kind.is_source()).map(|n| n.id).collect()
    }

    /// Ids of all sink nodes (operators with no outgoing edges).
    pub fn sinks(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| !n.kind.is_source() && self.out_edges(n.id).next().is_none())
            .map(|n| n.id)
            .collect()
    }

    /// Consumes the graph, yielding its nodes in id order (used by
    /// [`crate::topology::Topology`] decomposition).
    pub fn into_nodes(self) -> Vec<Node> {
        self.nodes
    }

    /// A topological order of all nodes (sources first), or `None` if the
    /// graph contains a cycle.
    pub fn topological_order(&self) -> Option<Vec<NodeId>> {
        let n = self.nodes.len();
        let mut in_deg = vec![0usize; n];
        for e in &self.edges {
            in_deg[e.to.0] += 1;
        }
        let mut queue: std::collections::VecDeque<usize> =
            (0..n).filter(|&i| in_deg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(NodeId(i));
            for e in self.out_edges(NodeId(i)) {
                in_deg[e.to.0] -= 1;
                if in_deg[e.to.0] == 0 {
                    queue.push_back(e.to.0);
                }
            }
        }
        if order.len() == n {
            Some(order)
        } else {
            None
        }
    }

    /// Whether the graph is acyclic.
    pub fn is_dag(&self) -> bool {
        self.topological_order().is_some()
    }
}

impl fmt::Debug for QueryGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "QueryGraph {{")?;
        for n in &self.nodes {
            let kind = if n.kind.is_source() { "source" } else { "operator" };
            writeln!(f, "  {} [{}] {}", n.id, kind, n.name)?;
        }
        for e in &self.edges {
            writeln!(f, "  {} -> {}:{}", e.from, e.to, e.to_port)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmts_operators::expr::Expr;
    use hmts_operators::filter::Filter;
    use hmts_operators::sink::NullSink;
    use hmts_streams::time::Timestamp;
    use hmts_streams::tuple::Tuple;

    struct FakeSource(&'static str);
    impl Source for FakeSource {
        fn name(&self) -> &str {
            self.0
        }
        fn next(&mut self) -> Option<(Timestamp, Tuple)> {
            None
        }
    }

    fn filter(name: &'static str) -> Box<dyn Operator> {
        Box::new(Filter::new(name, Expr::bool(true)))
    }

    fn chain() -> (QueryGraph, NodeId, NodeId, NodeId) {
        let mut g = QueryGraph::new();
        let s = g.add_source(Box::new(FakeSource("src")));
        let f = g.add_operator(filter("f"));
        let k = g.add_operator(Box::new(NullSink::new("sink")));
        g.connect(s, f);
        g.connect(f, k);
        (g, s, f, k)
    }

    #[test]
    fn build_and_inspect() {
        let (g, s, f, k) = chain();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.sources(), vec![s]);
        assert_eq!(g.operators(), vec![f, k]);
        assert_eq!(g.sinks(), vec![k]);
        assert_eq!(g.successors(s).collect::<Vec<_>>(), vec![f]);
        assert_eq!(g.predecessors(k).collect::<Vec<_>>(), vec![f]);
        assert_eq!(g.node(f).name, "f");
        assert_eq!(g.node(s).input_arity(), 0);
        assert_eq!(g.node(f).input_arity(), 1);
    }

    #[test]
    fn connect_assigns_next_free_port() {
        let mut g = QueryGraph::new();
        let a = g.add_source(Box::new(FakeSource("a")));
        let b = g.add_source(Box::new(FakeSource("b")));
        let j = g.add_operator(filter("j"));
        let e0 = g.connect(a, j);
        let e1 = g.connect(b, j);
        assert_eq!(e0.to_port, 0);
        assert_eq!(e1.to_port, 1);
    }

    #[test]
    fn topological_order_respects_edges() {
        let (g, s, f, k) = chain();
        let order = g.topological_order().unwrap();
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(s) < pos(f));
        assert!(pos(f) < pos(k));
        assert!(g.is_dag());
    }

    #[test]
    fn cycle_detected() {
        let mut g = QueryGraph::new();
        let a = g.add_operator(filter("a"));
        let b = g.add_operator(filter("b"));
        g.connect(a, b);
        g.connect(b, a);
        assert!(!g.is_dag());
        assert!(g.topological_order().is_none());
    }

    #[test]
    fn duplicate_names_are_made_unique() {
        let mut g = QueryGraph::new();
        let a = g.add_operator(filter("f"));
        let b = g.add_operator(filter("f"));
        assert_eq!(g.node(a).name, "f");
        assert_eq!(g.node(b).name, "f#1");
    }

    #[test]
    fn shared_subquery_fanout() {
        // Diamond: s -> f -> {g, h} (subquery sharing), both into sink.
        let mut g = QueryGraph::new();
        let s = g.add_source(Box::new(FakeSource("s")));
        let f = g.add_operator(filter("f"));
        let x = g.add_operator(filter("x"));
        let y = g.add_operator(filter("y"));
        let u = g.add_operator(Box::new(hmts_operators::union::Union::new("u", 2)));
        g.connect(s, f);
        g.connect(f, x);
        g.connect(f, y);
        g.connect(x, u);
        g.connect(y, u);
        assert_eq!(g.successors(f).count(), 2);
        assert_eq!(g.sinks(), vec![u]);
        assert!(g.is_dag());
    }

    #[test]
    fn debug_format_lists_structure() {
        let (g, ..) = chain();
        let dbg = format!("{g:?}");
        assert!(dbg.contains("n0 [source] src"));
        assert!(dbg.contains("n1 -> n2:0"));
    }
}
