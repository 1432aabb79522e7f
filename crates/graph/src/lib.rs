//! # `hmts-graph` — the continuous-query graph substrate
//!
//! Query graphs (paper §2.1): DAGs of sources, operators, and sinks, plus
//! everything the HMTS scheduling layers need to reason about them:
//!
//! * [`graph::QueryGraph`] — the owned DAG with structural queries,
//! * [`builder::GraphBuilder`] — fluent construction,
//! * [`validate()`] — structural invariants,
//! * [`partition::Partitioning`] — virtual-operator partitionings and the
//!   queue placement they imply (boundary edges),
//! * [`cost::CostGraph`] — `c(v)` / `d(v)` annotations, rate propagation
//!   through selectivities, and the capacity `cap(P) = d(P) − c(P)` of
//!   §5.1.2,
//! * [`dot`] — Graphviz export with partitions as clusters.

#![warn(missing_docs)]

pub mod builder;
pub mod cost;
pub mod dot;
pub mod graph;
pub mod partition;
pub mod topology;
pub mod validate;

pub use builder::GraphBuilder;
pub use cost::{CostGraph, CostInputs};
pub use dot::to_dot;
pub use graph::{Edge, Node, NodeId, NodeKind, QueryGraph, ShardGroup};
pub use partition::{PartitionError, Partitioning};
pub use topology::{Payload, TopoKind, Topology};
pub use validate::{validate, validated, ValidationError};
