//! Capacity-model analyzer: bottleneck attribution, latency prediction,
//! and headroom estimation over the engine's live graph model.
//!
//! The paper's cost model — measured per-element cost `c(v)`, mean
//! inter-arrival time `d(v)`, and selectivity-propagated rates — reaches
//! this module as one typed [`GraphModel`], built by the provider the
//! engine keeps registered on its [`Obs`] handle
//! ([`Obs::set_graph_model`]). This module turns it into operator-facing
//! answers:
//!
//! * **per-node utilization** ρ(v) = λ(v) · c(v), the fraction of one
//!   core the operator consumes at the measured arrival rate;
//! * **predicted queueing delay** per decoupling-queue *station* from an
//!   M/G/1 waiting-time approximation,
//!   `W = ρ·c·(1+CV²) / (2·(1−ρ))` (Pollaczek–Khinchine mean wait; CV²
//!   is the squared coefficient of variation of service time, a config
//!   knob — 1.0 models exponential service, 0.0 deterministic service);
//! * **predicted end-to-end p50/p99** per source→terminal path, modelling
//!   the total queueing wait as exponentially distributed around its
//!   mean: `p50 = D + W·ln 2`, `p99 = D + W·ln 100` where `D` is the
//!   deterministic service sum along the path;
//! * **bottleneck ranking and headroom**: nodes sorted by ρ, plus the
//!   multiplicative factor by which the ingest rate can grow before some
//!   partition (or node) saturates (ρ ≥ 1), since every λ in the graph
//!   scales linearly with the source rates;
//! * **model-vs-measured drift** against the real
//!   `egress.<terminal>.e2e_latency_ns` histograms, the only input read
//!   from the metrics registry.
//!
//! Inline operators (nodes inside a virtual operator, reached by direct
//! interoperability) contribute service time but no queueing wait — only
//! nodes that head a decoupling queue are stations. When no node carries
//! a partition every non-source node is treated as a station (the GTS
//! view).
//!
//! [`install`] registers a *pinned* collector (one that survives the
//! engine's `clear_collectors` on plan switches) publishing the analysis
//! as `capacity.*` gauges, so `/metrics` scrapes and alert rules see the
//! model without calling the analyzer directly.

use crate::export::json_escape;
use crate::registry::quantile_from_cumulative;
use crate::{MetricValue, Obs};

/// Knobs of the queueing model.
#[derive(Clone, Debug)]
pub struct CapacityConfig {
    /// Squared coefficient of variation of service times (`CV² = Var/E²`)
    /// assumed by the Pollaczek–Khinchine wait formula. 1.0 (the default)
    /// models exponentially distributed service — conservative for this
    /// engine's near-deterministic operators; 0.0 models deterministic
    /// service (M/D/1).
    pub service_cv2: f64,
    /// Utilizations are clamped below this before the `1/(1−ρ)` pole, so
    /// an overloaded station reports a large finite wait instead of NaN
    /// or infinity.
    pub rho_clamp: f64,
    /// Upper bound on the reported headroom factor (an idle graph would
    /// otherwise report infinity).
    pub headroom_cap: f64,
}

impl Default for CapacityConfig {
    fn default() -> Self {
        CapacityConfig { service_cv2: 1.0, rho_clamp: 0.999, headroom_cap: 1e6 }
    }
}

/// One node of a [`GraphModel`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ModelNode {
    /// Node name.
    pub name: String,
    /// Indices (into [`GraphModel::nodes`]) of the producers feeding this
    /// node, one per in-edge. Each is smaller than the node's own index.
    pub preds: Vec<usize>,
    /// Whether the node is a source.
    pub source: bool,
    /// The virtual operator (partition) of the running plan holding the
    /// node; `None` for sources or when unknown.
    pub partition: Option<usize>,
    /// Measured per-element cost c(v) in nanoseconds.
    pub cost_ns: Option<f64>,
    /// Measured selectivity (outputs per input).
    pub selectivity: Option<f64>,
    /// Measured arrival rate λ(v) in elements/second (a source's emission
    /// rate).
    pub rate: Option<f64>,
    /// Elements waiting in the node's entry queues; `None` when no queue
    /// feeds the node.
    pub queue_depth: Option<f64>,
}

/// One sharded logical operator of a [`GraphModel`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ModelShard {
    /// Name of the operator before the sharding rewrite.
    pub logical: String,
    /// Index of the splitter node. A splitter routes each element to one
    /// replica, so its output rate divides across the replicas.
    pub splitter: usize,
    /// Indices of the replica nodes, shard index order.
    pub replicas: Vec<usize>,
}

/// The query graph and its measurements as the engine sees them: the
/// analyzer's only graph input.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GraphModel {
    /// Nodes in topological order.
    pub nodes: Vec<ModelNode>,
    /// Sharded operators.
    pub shards: Vec<ModelShard>,
}

/// One node's capacity picture.
#[derive(Clone, Debug)]
pub struct NodeCapacity {
    /// Operator name.
    pub name: String,
    /// Measured arrival rate λ(v) in elements/second.
    pub rate: f64,
    /// Measured per-element cost c(v) in nanoseconds.
    pub cost_ns: f64,
    /// Measured selectivity (outputs per input).
    pub selectivity: f64,
    /// Utilization ρ = λ · c (fraction of one core).
    pub rho: f64,
    /// Whether the node heads a decoupling queue (a queueing station).
    pub station: bool,
    /// Predicted M/G/1 mean queueing wait in nanoseconds (0 for inline
    /// nodes — they never wait in a queue of their own). When the node's
    /// partition is known, the wait is computed against the *partition's*
    /// utilization and effective service time: the entry queue is drained
    /// by the virtual operator's thread, whose per-element work covers
    /// every member downstream of the queue, not just this node.
    pub wait_ns: f64,
    /// Current occupancy of the node's entry queue(s), when published.
    pub queue_depth: Option<f64>,
}

/// One virtual operator's aggregate utilization: the busy fraction of the
/// single thread serving the whole partition, `Σ λ(v)·c(v)` over members.
#[derive(Clone, Debug)]
pub struct PartitionCapacity {
    /// Group index in the published partitioning.
    pub index: usize,
    /// Member node names.
    pub nodes: Vec<String>,
    /// Aggregate utilization of the partition's serving thread.
    pub rho: f64,
}

/// One sharded logical operator: its replicas' utilizations rolled up
/// under the pre-rewrite node name, so dashboards and `rho(<logical>)`
/// alert rules keep working after the sharding rewrite.
#[derive(Clone, Debug)]
pub struct ShardCapacity {
    /// Logical operator name (the pre-rewrite node, e.g. `agg`).
    pub logical: String,
    /// Display form grouping the replicas, e.g. `agg[0..3]`.
    pub display: String,
    /// Replica node names in shard-index order.
    pub replicas: Vec<String>,
    /// Per-replica utilization, aligned with `replicas`.
    pub rho: Vec<f64>,
    /// The hottest replica's ρ — the logical node saturates when any one
    /// replica does, so this is what `rho(<logical>)` resolves to.
    pub max_rho: f64,
    /// The hottest replica's predicted queueing wait (ns).
    pub max_wait_ns: f64,
    /// Combined arrival rate over all replicas (elements/second).
    pub rate: f64,
    /// `max ρ / mean ρ` — 1.0 means perfectly balanced keys; large values
    /// flag key skew concentrating load on one replica.
    pub imbalance: f64,
}

/// Predicted end-to-end latency along one source→terminal path.
#[derive(Clone, Debug)]
pub struct PathPrediction {
    /// Source node name.
    pub source: String,
    /// Terminal (sink) node name.
    pub terminal: String,
    /// Path node names, source first.
    pub nodes: Vec<String>,
    /// Deterministic service sum `D = Σ c(v)` (ns, sources excluded).
    pub service_ns: f64,
    /// Total predicted mean queueing wait `W = Σ W(v)` (ns).
    pub wait_ns: f64,
    /// Predicted mean end-to-end latency `D + W` (ns).
    pub mean_ns: f64,
    /// Predicted median, `D + W·ln 2` (ns).
    pub p50_ns: f64,
    /// Predicted 99th percentile, `D + W·ln 100` (ns).
    pub p99_ns: f64,
}

/// Model-vs-measured comparison for one terminal with a real egress
/// latency histogram.
#[derive(Clone, Debug)]
pub struct Drift {
    /// Terminal node name (the `egress.<terminal>.e2e_latency_ns` query).
    pub terminal: String,
    /// Predicted p50/p99 (ns).
    pub predicted_p50_ns: f64,
    /// Predicted p99 (ns).
    pub predicted_p99_ns: f64,
    /// Measured p50 from the histogram (bucket upper bound, ns).
    pub measured_p50_ns: u64,
    /// Measured p99 from the histogram (bucket upper bound, ns).
    pub measured_p99_ns: u64,
    /// Histogram sample count.
    pub measured_count: u64,
    /// `predicted_p99 / measured_p99` (> 1 = model over-predicts).
    pub p99_ratio: f64,
}

/// The full analysis document.
#[derive(Clone, Debug, Default)]
pub struct CapacityReport {
    /// Per-node table, ranked by ρ descending (the bottleneck ranking).
    pub nodes: Vec<NodeCapacity>,
    /// Per-partition utilization (empty when no partitioning published).
    pub partitions: Vec<PartitionCapacity>,
    /// Sharded logical operators (replica names grouped by base; empty
    /// when no node of the graph is sharded).
    pub shards: Vec<ShardCapacity>,
    /// Name of the operator with the highest measured ρ.
    pub bottleneck: Option<String>,
    /// The highest saturation fraction in the graph: max partition ρ when
    /// partitions are known (one thread serves the whole VO), else max
    /// node ρ.
    pub max_rho: f64,
    /// Multiplicative headroom: ingest can grow by this factor before
    /// `max_rho` reaches 1 (every rate in the graph scales linearly with
    /// the sources).
    pub headroom: f64,
    /// Total measured source rate (elements/second).
    pub ingest_rate: f64,
    /// `ingest_rate × headroom` — the predicted maximum sustainable
    /// ingest rate.
    pub max_sustainable_rate: f64,
    /// Per-path latency predictions.
    pub paths: Vec<PathPrediction>,
    /// Model-vs-measured drift per terminal with an egress histogram.
    pub drift: Vec<Drift>,
}

/// Runs the analyzer over a graph model. `metrics` is read only for the
/// `egress.<terminal>.e2e_latency_ns` histograms of the drift table.
pub fn analyze(
    model: &GraphModel,
    metrics: &[(String, MetricValue)],
    cfg: &CapacityConfig,
) -> CapacityReport {
    let nodes_in = &model.nodes;
    let n = nodes_in.len();
    let is_source = |i: usize| nodes_in[i].source;
    let part_of = |i: usize| nodes_in[i].partition;
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (v, node) in nodes_in.iter().enumerate() {
        for &u in &node.preds {
            succs[u].push(v);
        }
    }
    // A shard splitter routes, it does not copy: its output divides across
    // its replicas (uniformly, as the model's best guess absent measured
    // rates). Any other node copies its output to every successor.
    let mut fan = vec![1.0; n];
    for s in &model.shards {
        fan[s.splitter] = s.replicas.len().max(1) as f64;
    }
    let cost_ns: Vec<f64> = nodes_in.iter().map(|x| x.cost_ns.unwrap_or(0.0).max(0.0)).collect();
    let sel: Vec<f64> = nodes_in.iter().map(|x| x.selectivity.unwrap_or(1.0)).collect();

    // Measured arrival rates; a node without one (yet) gets the rate
    // propagated from upstream through measured selectivities. Nodes are
    // in topological order, so every producer's rate is final here.
    let mut rate: Vec<f64> = vec![0.0; n];
    for i in 0..n {
        rate[i] = match nodes_in[i].rate {
            Some(r) if r > 0.0 => r,
            _ => nodes_in[i].preds.iter().map(|&u| rate[u] * sel[u] / fan[u]).sum(),
        };
    }

    // Stations: nodes fed from a source or across a partition boundary.
    // With no partitioning known, every operator queues (GTS view).
    let partitioned = nodes_in.iter().any(|x| x.partition.is_some());
    let station: Vec<bool> = (0..n)
        .map(|i| {
            !is_source(i)
                && (!partitioned
                    || nodes_in[i]
                        .preds
                        .iter()
                        .any(|&u| is_source(u) || part_of(u) != part_of(i) || part_of(i).is_none()))
        })
        .collect();

    // Virtual operators, members in model order. A partition's ρ is the
    // busy fraction Σ λ·c of the one thread serving all its members.
    let rho: Vec<f64> = (0..n).map(|i| (rate[i] * cost_ns[i] * 1e-9).max(0.0)).collect();
    let part_count = nodes_in.iter().filter_map(|x| x.partition).max().map_or(0, |p| p + 1);
    let mut partitions: Vec<PartitionCapacity> = (0..part_count)
        .map(|index| PartitionCapacity { index, nodes: Vec::new(), rho: 0.0 })
        .collect();
    for (i, x) in nodes_in.iter().enumerate() {
        if let Some(p) = x.partition {
            partitions[p].nodes.push(x.name.clone());
            partitions[p].rho += rho[i];
        }
    }

    let cv2 = cfg.service_cv2.max(0.0);
    // A station's queue is served by the partition's thread, so its wait
    // must be computed against the partition's ρ, with an effective
    // service time of (partition work per second) / (station arrivals per
    // second) — the VO busy-time one arriving element induces.
    let wait_ns: Vec<f64> = (0..n)
        .map(|i| {
            if !station[i] {
                return 0.0;
            }
            let (r_eff, service_ns) = match part_of(i) {
                Some(p) if rate[i] > 0.0 => (partitions[p].rho, partitions[p].rho * 1e9 / rate[i]),
                _ => (rho[i], cost_ns[i]),
            };
            let r = r_eff.min(cfg.rho_clamp).max(0.0);
            r * service_ns * (1.0 + cv2) / (2.0 * (1.0 - r))
        })
        .collect();
    let mut nodes: Vec<NodeCapacity> = (0..n)
        .filter(|&i| !is_source(i))
        .map(|i| NodeCapacity {
            name: nodes_in[i].name.clone(),
            rate: rate[i],
            cost_ns: cost_ns[i],
            selectivity: sel[i],
            rho: rho[i],
            station: station[i],
            wait_ns: wait_ns[i],
            queue_depth: nodes_in[i].queue_depth,
        })
        .collect();
    nodes.sort_by(|a, b| b.rho.total_cmp(&a.rho));
    let bottleneck = nodes.first().filter(|x| x.rho > 0.0).map(|x| x.name.clone());

    // Roll shard replicas up under their logical (pre-rewrite) node.
    let shards: Vec<ShardCapacity> = model
        .shards
        .iter()
        .map(|s| {
            let of = |v: &[f64]| -> Vec<f64> { s.replicas.iter().map(|&i| v[i]).collect() };
            let rho = of(&rho);
            let max_rho = rho.iter().copied().fold(0.0, f64::max);
            let mean = rho.iter().sum::<f64>() / rho.len() as f64;
            ShardCapacity {
                logical: s.logical.clone(),
                display: format!("{}[0..{}]", s.logical, rho.len()),
                replicas: s.replicas.iter().map(|&i| nodes_in[i].name.clone()).collect(),
                max_rho,
                max_wait_ns: of(&wait_ns).into_iter().fold(0.0, f64::max),
                rate: of(&rate).iter().sum(),
                imbalance: if mean > 0.0 { max_rho / mean } else { 1.0 },
                rho,
            }
        })
        .collect();

    let max_rho = if partitions.is_empty() {
        nodes.first().map(|x| x.rho).unwrap_or(0.0)
    } else {
        partitions.iter().map(|p| p.rho).fold(0.0, f64::max)
    };
    let headroom =
        if max_rho > 0.0 { (1.0 / max_rho).min(cfg.headroom_cap) } else { cfg.headroom_cap };
    let ingest_rate: f64 = (0..n).filter(|&i| is_source(i)).map(|i| rate[i]).sum();
    let max_sustainable_rate = ingest_rate * headroom;

    // Paths: every source→terminal chain (bounded DFS — query graphs are
    // small; the cap guards against pathological fan-out).
    let mut paths: Vec<PathPrediction> = Vec::new();
    const MAX_PATHS: usize = 64;
    for s in (0..n).filter(|&i| is_source(i)) {
        let mut stack: Vec<Vec<usize>> = vec![vec![s]];
        while let Some(path) = stack.pop() {
            if paths.len() >= MAX_PATHS {
                break;
            }
            let last = *path.last().expect("non-empty path");
            if succs[last].is_empty() && path.len() > 1 {
                let service_ns: f64 = path[1..].iter().map(|&i| cost_ns[i]).sum();
                let wait_ns: f64 = path[1..].iter().map(|&i| wait_ns[i]).sum();
                paths.push(PathPrediction {
                    source: nodes_in[s].name.clone(),
                    terminal: nodes_in[last].name.clone(),
                    nodes: path.iter().map(|&i| nodes_in[i].name.clone()).collect(),
                    service_ns,
                    wait_ns,
                    mean_ns: service_ns + wait_ns,
                    p50_ns: service_ns + wait_ns * std::f64::consts::LN_2,
                    p99_ns: service_ns + wait_ns * 100f64.ln(),
                });
                continue;
            }
            for &v in &succs[last] {
                if path.contains(&v) {
                    continue; // cycle guard
                }
                let mut next = path.clone();
                next.push(v);
                stack.push(next);
            }
        }
    }

    let drift: Vec<Drift> = paths
        .iter()
        .filter_map(|p| {
            let name = format!("egress.{}.e2e_latency_ns", p.terminal);
            let (count, buckets) = metrics.iter().find_map(|(n, v)| match v {
                MetricValue::Histogram(count, _, buckets) if *n == name => Some((*count, buckets)),
                _ => None,
            })?;
            if count == 0 {
                return None;
            }
            let measured_p50_ns = quantile_from_cumulative(count, buckets, 0.50);
            let measured_p99_ns = quantile_from_cumulative(count, buckets, 0.99);
            Some(Drift {
                terminal: p.terminal.clone(),
                predicted_p50_ns: p.p50_ns,
                predicted_p99_ns: p.p99_ns,
                measured_p50_ns,
                measured_p99_ns,
                measured_count: count,
                p99_ratio: if measured_p99_ns > 0 {
                    p.p99_ns / measured_p99_ns as f64
                } else {
                    f64::NAN
                },
            })
        })
        .collect();

    CapacityReport {
        nodes,
        partitions,
        shards,
        bottleneck,
        max_rho,
        headroom,
        ingest_rate,
        max_sustainable_rate,
        paths,
        drift,
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        if v.fract() == 0.0 && v.abs() < 9e15 {
            format!("{}", v as i64)
        } else {
            format!("{v:.3}")
        }
    } else {
        "null".into()
    }
}

/// A JSON array body of quoted, escaped names.
fn quoted(names: &[String]) -> String {
    names.iter().map(|x| format!("\"{}\"", json_escape(x))).collect::<Vec<_>>().join(",")
}

/// Renders the report as one JSON document (the `/analyze` body).
pub fn report_json(report: &CapacityReport, uptime_ms: u128) -> String {
    let nodes: Vec<String> = report
        .nodes
        .iter()
        .map(|x| {
            format!(
                "{{\"name\":\"{}\",\"rate\":{},\"cost_ns\":{},\"selectivity\":{},\"rho\":{},\"station\":{},\"wait_ns\":{},\"queue_depth\":{}}}",
                json_escape(&x.name),
                num(x.rate),
                num(x.cost_ns),
                num(x.selectivity),
                num(x.rho),
                x.station,
                num(x.wait_ns),
                x.queue_depth.map(num).unwrap_or_else(|| "null".into()),
            )
        })
        .collect();
    let partitions: Vec<String> = report
        .partitions
        .iter()
        .map(|p| {
            format!(
                "{{\"index\":{},\"nodes\":[{}],\"rho\":{}}}",
                p.index,
                quoted(&p.nodes),
                num(p.rho)
            )
        })
        .collect();
    let shards: Vec<String> = report
        .shards
        .iter()
        .map(|s| {
            let rho: Vec<String> = s.rho.iter().map(|r| num(*r)).collect();
            format!(
                "{{\"logical\":\"{}\",\"display\":\"{}\",\"replicas\":[{}],\"rho\":[{}],\"max_rho\":{},\"max_wait_ns\":{},\"rate\":{},\"imbalance\":{}}}",
                json_escape(&s.logical),
                json_escape(&s.display),
                quoted(&s.replicas),
                rho.join(","),
                num(s.max_rho),
                num(s.max_wait_ns),
                num(s.rate),
                num(s.imbalance),
            )
        })
        .collect();
    let paths: Vec<String> = report
        .paths
        .iter()
        .map(|p| {
            format!(
                "{{\"source\":\"{}\",\"terminal\":\"{}\",\"nodes\":[{}],\"service_ns\":{},\"wait_ns\":{},\"mean_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
                json_escape(&p.source),
                json_escape(&p.terminal),
                quoted(&p.nodes),
                num(p.service_ns),
                num(p.wait_ns),
                num(p.mean_ns),
                num(p.p50_ns),
                num(p.p99_ns),
            )
        })
        .collect();
    let drift: Vec<String> = report
        .drift
        .iter()
        .map(|d| {
            format!(
                "{{\"terminal\":\"{}\",\"predicted_p50_ns\":{},\"predicted_p99_ns\":{},\"measured_p50_ns\":{},\"measured_p99_ns\":{},\"measured_count\":{},\"p99_ratio\":{}}}",
                json_escape(&d.terminal),
                num(d.predicted_p50_ns),
                num(d.predicted_p99_ns),
                d.measured_p50_ns,
                d.measured_p99_ns,
                d.measured_count,
                num(d.p99_ratio),
            )
        })
        .collect();
    format!(
        "{{\"uptime_ms\":{uptime_ms},\"bottleneck\":{},\"max_rho\":{},\"headroom\":{},\"ingest_rate\":{},\"max_sustainable_rate\":{},\"nodes\":[{}],\"partitions\":[{}],\"shards\":[{}],\"paths\":[{}],\"drift\":[{}]}}\n",
        report
            .bottleneck
            .as_ref()
            .map(|b| format!("\"{}\"", json_escape(b)))
            .unwrap_or_else(|| "null".into()),
        num(report.max_rho),
        num(report.headroom),
        num(report.ingest_rate),
        num(report.max_sustainable_rate),
        nodes.join(","),
        partitions.join(","),
        shards.join(","),
        paths.join(","),
        drift.join(","),
    )
}

/// Installs the periodic analyzer: a pinned collector (surviving engine
/// re-wirings) that runs [`analyze`] over the registered [`GraphModel`]
/// on every collector pass and publishes the result as `capacity.*`
/// gauges:
///
/// * `capacity.node.<name>.rho_ppm`, `capacity.node.<name>.wait_ns`
/// * `capacity.partition.<i>.rho_ppm`
/// * for sharded nodes, `capacity.node.<logical>.rho_ppm` /
///   `.wait_ns` (hottest replica, keeping `rho(<logical>)` alert rules
///   live) plus `capacity.shard.<logical>.replicas` and
///   `capacity.shard.<logical>.imbalance_ppm`
/// * `capacity.max_rho_ppm`, `capacity.headroom_ppm`,
///   `capacity.max_sustainable_rate`
/// * `capacity.path.<terminal>.predicted_{p50,p99,mean}_ns`
/// * `capacity.drift.<terminal>.p99_ratio_ppm`
///
/// Publishes nothing until a model provider is registered.
pub fn install(obs: &Obs, cfg: CapacityConfig) {
    if !obs.is_enabled() {
        return;
    }
    let obs2 = obs.clone();
    obs.add_pinned_collector(move || {
        let Some(model) = obs2.graph_model() else {
            return;
        };
        let report = analyze(&model, &obs2.metrics_snapshot(), &cfg);
        let ppm = |x: f64| (x * 1e6).clamp(0.0, i64::MAX as f64) as i64;
        for x in &report.nodes {
            obs2.gauge(&format!("capacity.node.{}.rho_ppm", x.name)).set(ppm(x.rho));
            obs2.gauge(&format!("capacity.node.{}.wait_ns", x.name)).set(x.wait_ns as i64);
        }
        for p in &report.partitions {
            obs2.gauge(&format!("capacity.partition.{}.rho_ppm", p.index)).set(ppm(p.rho));
        }
        // Sharded logical nodes: re-publish the hottest replica under the
        // pre-rewrite name so existing `rho(<name>)` alert rules and
        // dashboards keep working across a sharding rewrite.
        for s in &report.shards {
            obs2.gauge(&format!("capacity.node.{}.rho_ppm", s.logical)).set(ppm(s.max_rho));
            obs2.gauge(&format!("capacity.node.{}.wait_ns", s.logical)).set(s.max_wait_ns as i64);
            obs2.gauge(&format!("capacity.shard.{}.replicas", s.logical))
                .set(s.replicas.len() as i64);
            obs2.gauge(&format!("capacity.shard.{}.imbalance_ppm", s.logical))
                .set(ppm(s.imbalance));
        }
        obs2.gauge("capacity.max_rho_ppm").set(ppm(report.max_rho));
        obs2.gauge("capacity.headroom_ppm").set(ppm(report.headroom));
        obs2.gauge("capacity.max_sustainable_rate").set(report.max_sustainable_rate as i64);
        for p in &report.paths {
            let base = format!("capacity.path.{}", p.terminal);
            obs2.gauge(&format!("{base}.predicted_p50_ns")).set(p.p50_ns as i64);
            obs2.gauge(&format!("{base}.predicted_p99_ns")).set(p.p99_ns as i64);
            obs2.gauge(&format!("{base}.predicted_mean_ns")).set(p.mean_ns as i64);
        }
        for d in &report.drift {
            if d.p99_ratio.is_finite() {
                obs2.gauge(&format!("capacity.drift.{}.p99_ratio_ppm", d.terminal))
                    .set(ppm(d.p99_ratio));
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(name: &str, rate: f64) -> ModelNode {
        ModelNode { name: name.into(), source: true, rate: Some(rate), ..ModelNode::default() }
    }

    fn op(name: &str, preds: &[usize], cost_ns: f64, rate: Option<f64>) -> ModelNode {
        ModelNode {
            name: name.into(),
            preds: preds.to_vec(),
            cost_ns: Some(cost_ns),
            rate,
            ..ModelNode::default()
        }
    }

    fn model(nodes: Vec<ModelNode>) -> GraphModel {
        GraphModel { nodes, shards: Vec::new() }
    }

    fn gauge(obs: &Obs, name: &str) -> Option<i64> {
        obs.metrics_snapshot().into_iter().find_map(|(n, v)| match v {
            MetricValue::Gauge(g) if n == name => Some(g),
            _ => None,
        })
    }

    /// src → a (cheap) → b (expensive): b must rank as the bottleneck and
    /// the path prediction must be the closed-form M/G/1 sum.
    #[test]
    fn ranks_bottleneck_and_predicts_path_latency() {
        let m = model(vec![
            src("src", 1000.0),
            // 10 µs → ρ=0.01
            ModelNode {
                selectivity: Some(1.0),
                partition: Some(0),
                ..op("a", &[0], 10_000.0, Some(1000.0))
            },
            // 500 µs → ρ=0.5
            ModelNode {
                selectivity: Some(1.0),
                partition: Some(1),
                ..op("b", &[1], 500_000.0, Some(1000.0))
            },
        ]);
        let cfg = CapacityConfig { service_cv2: 0.0, ..CapacityConfig::default() };
        let report = analyze(&m, &[], &cfg);

        assert_eq!(report.bottleneck.as_deref(), Some("b"));
        assert_eq!(report.nodes[0].name, "b");
        assert!((report.nodes[0].rho - 0.5).abs() < 1e-9, "rho={}", report.nodes[0].rho);
        assert!((report.max_rho - 0.5).abs() < 1e-9);
        assert!((report.headroom - 2.0).abs() < 1e-9);
        assert!((report.ingest_rate - 1000.0).abs() < 1e-9);
        assert!((report.max_sustainable_rate - 2000.0).abs() < 1e-9);

        // M/D/1 waits: W_a = .01*10µs/(2*.99), W_b = .5*500µs/(2*.5).
        let w_a = 0.01 * 10_000.0 / (2.0 * 0.99);
        let w_b = 0.5 * 500_000.0 / (2.0 * 0.5);
        assert_eq!(report.paths.len(), 1);
        let p = &report.paths[0];
        assert_eq!(p.terminal, "b");
        assert!((p.service_ns - 510_000.0).abs() < 1.0);
        assert!((p.wait_ns - (w_a + w_b)).abs() < 1.0, "wait={} want={}", p.wait_ns, w_a + w_b);
        assert!((p.mean_ns - (p.service_ns + p.wait_ns)).abs() < 1e-6);
        assert!(p.p50_ns < p.p99_ns && p.p99_ns < p.service_ns + 5.0 * p.wait_ns);
    }

    /// Rates propagate through measured selectivities when a downstream
    /// node has not measured its own rate.
    #[test]
    fn propagates_rates_through_selectivity() {
        let m = model(vec![
            src("src", 10_000.0),
            ModelNode { selectivity: Some(0.1), ..op("f", &[0], 1_000.0, None) },
            op("g", &[1], 1_000_000.0, None),
        ]);
        let report = analyze(&m, &[], &CapacityConfig::default());
        let f = report.nodes.iter().find(|x| x.name == "f").unwrap();
        let g = report.nodes.iter().find(|x| x.name == "g").unwrap();
        assert!((f.rate - 10_000.0).abs() < 1e-9, "f propagated from source");
        assert!((g.rate - 1_000.0).abs() < 1e-9, "g thinned by f's selectivity");
        // No partitioning known: every operator is a station.
        assert!(f.station && g.station);
    }

    /// Inline nodes (inside a partition, not behind a queue) contribute
    /// service time but no queueing wait.
    #[test]
    fn inline_nodes_do_not_queue() {
        let m = model(vec![
            src("s", 100.0),
            ModelNode { partition: Some(0), ..op("a", &[0], 1_000_000.0, Some(100.0)) },
            ModelNode { partition: Some(0), ..op("b", &[1], 1_000_000.0, Some(100.0)) },
        ]);
        let report = analyze(&m, &[], &CapacityConfig::default());
        let a = report.nodes.iter().find(|x| x.name == "a").unwrap();
        let b = report.nodes.iter().find(|x| x.name == "b").unwrap();
        assert!(a.station, "a heads the source-fed queue");
        assert!(!b.station, "b is inline behind a");
        assert!(a.wait_ns > 0.0);
        assert_eq!(b.wait_ns, 0.0);
        // Partition rho aggregates both members.
        assert_eq!(report.partitions.len(), 1);
        assert!((report.partitions[0].rho - 0.2).abs() < 1e-9);
    }

    /// Saturated stations clamp instead of dividing by zero, and drift
    /// compares against the measured egress histogram.
    #[test]
    fn clamps_overload_and_tracks_drift() {
        let obs = Obs::enabled();
        let h = obs.histogram("egress.op.e2e_latency_ns");
        for _ in 0..100 {
            h.record(1_000_000);
        }
        // ρ = 1000 ≫ 1
        let m = model(vec![src("s", 1_000_000.0), op("op", &[0], 1_000_000.0, Some(1_000_000.0))]);
        let report = analyze(&m, &obs.metrics_snapshot(), &CapacityConfig::default());
        let op = &report.nodes[0];
        assert!(op.rho > 1.0);
        assert!(op.wait_ns.is_finite() && op.wait_ns > 0.0);
        assert!(report.headroom < 1.0, "overloaded graph has sub-1 headroom");
        assert_eq!(report.drift.len(), 1);
        let d = &report.drift[0];
        assert_eq!(d.measured_count, 100);
        assert!(d.measured_p99_ns >= 1_000_000);
        assert!(d.p99_ratio.is_finite() && d.p99_ratio > 0.0);
    }

    #[test]
    fn report_json_is_parseable_and_names_bottleneck() {
        let m = model(vec![
            src("s", 500.0),
            ModelNode { partition: Some(0), ..op("hot", &[0], 900_000.0, Some(500.0)) },
        ]);
        let report = analyze(&m, &[], &CapacityConfig::default());
        let body = report_json(&report, 1234);
        let doc = crate::json::parse(&body).expect("valid JSON");
        assert_eq!(doc.get("bottleneck").and_then(|b| b.as_str()), Some("hot"));
        assert_eq!(doc.get("uptime_ms").and_then(|v| v.as_u64()), Some(1234));
        let nodes = doc.get("nodes").and_then(|x| x.as_arr()).expect("nodes array");
        assert_eq!(nodes.len(), 1);
        assert!(doc.get("max_rho").and_then(|v| v.as_f64()).unwrap() > 0.0);
    }

    #[test]
    fn install_publishes_capacity_gauges_surviving_collector_clears() {
        let obs = Obs::enabled();
        let m = model(vec![src("s", 100.0), op("x", &[0], 2_000_000.0, Some(100.0))]);
        obs.set_graph_model(move || m.clone());
        install(&obs, CapacityConfig::default());
        // A regular collector cleared by the engine must not take the
        // analyzer with it.
        obs.add_collector(|| {});
        obs.clear_collectors();
        obs.run_collectors();
        let rho = gauge(&obs, "capacity.node.x.rho_ppm").expect("rho gauge");
        assert!((rho - 200_000).abs() < 2_000, "ρ=0.2 → {rho} ppm");
        assert!(gauge(&obs, "capacity.max_rho_ppm").is_some());
        assert!(gauge(&obs, "capacity.headroom_ppm").unwrap() > 1_000_000);
        assert!(gauge(&obs, "capacity.max_sustainable_rate").unwrap() > 100);
    }

    /// src → agg.split → agg[0], agg[1] → agg.merge, with the replica
    /// group recorded as a shard.
    fn sharded_agg() -> GraphModel {
        GraphModel {
            nodes: vec![
                src("src", 1_000.0),
                op("agg.split", &[0], 100.0, Some(1_000.0)),
                op("agg[0]", &[1], 500_000.0, Some(600.0)),
                op("agg[1]", &[1], 500_000.0, Some(400.0)),
                op("agg.merge", &[2, 3], 100.0, None),
            ],
            shards: vec![ModelShard { logical: "agg".into(), splitter: 1, replicas: vec![2, 3] }],
        }
    }

    /// Shard replicas roll up under the logical node: the report gains a
    /// `shards` entry, and `install` re-publishes the hottest replica's ρ
    /// as `capacity.node.agg.rho_ppm` so a `rho(agg)` alert rule survives
    /// the sharding rewrite unchanged.
    #[test]
    fn shard_replicas_roll_up_under_logical_node() {
        let report = analyze(&sharded_agg(), &[], &CapacityConfig::default());

        assert_eq!(report.shards.len(), 1);
        let s = &report.shards[0];
        assert_eq!(s.logical, "agg");
        assert_eq!(s.display, "agg[0..2]");
        assert_eq!(s.replicas, vec!["agg[0]".to_string(), "agg[1]".to_string()]);
        assert!((s.max_rho - 0.3).abs() < 1e-9, "hottest replica ρ: {}", s.max_rho);
        assert!((s.rate - 1_000.0).abs() < 1e-9);
        assert!((s.imbalance - 0.3 / 0.25).abs() < 1e-9, "imbalance: {}", s.imbalance);
        // The hot replica — not the logical rollup — is the bottleneck row.
        assert_eq!(report.bottleneck.as_deref(), Some("agg[0]"));

        // The JSON body carries the shards table.
        let body = report_json(&report, 1);
        let doc = crate::json::parse(&body).expect("valid JSON");
        let shards = doc.get("shards").and_then(|x| x.as_arr()).expect("shards array");
        assert_eq!(shards[0].get("display").and_then(|v| v.as_str()), Some("agg[0..2]"));

        // install() republishes under the logical name.
        let obs = Obs::enabled();
        obs.set_graph_model(sharded_agg);
        install(&obs, CapacityConfig::default());
        obs.run_collectors();
        let rho = gauge(&obs, "capacity.node.agg.rho_ppm").expect("logical rho gauge");
        assert!((rho - 300_000).abs() < 3_000, "max replica ρ=0.3 → {rho} ppm");
        assert_eq!(gauge(&obs, "capacity.shard.agg.replicas"), Some(2));
        assert!(gauge(&obs, "capacity.shard.agg.imbalance_ppm").unwrap() > 1_000_000);
    }

    /// A splitter's propagated rate divides across its out-edges (it
    /// routes, it does not broadcast), so un-measured replicas get the
    /// uniform share rather than the full input rate each.
    #[test]
    fn split_fanout_divides_propagated_rate() {
        let m = GraphModel {
            nodes: vec![
                src("src", 1_000.0),
                ModelNode {
                    name: "f.split".into(),
                    preds: vec![0],
                    rate: Some(1_000.0),
                    ..ModelNode::default()
                },
                op("f[0]", &[1], 100_000.0, None),
                op("f[1]", &[1], 100_000.0, None),
            ],
            shards: vec![ModelShard { logical: "f".into(), splitter: 1, replicas: vec![2, 3] }],
        };
        let report = analyze(&m, &[], &CapacityConfig::default());
        for name in ["f[0]", "f[1]"] {
            let x = report.nodes.iter().find(|x| x.name == name).unwrap();
            assert!((x.rate - 500.0).abs() < 1e-9, "{name} rate: {}", x.rate);
        }
    }

    /// Only a recorded shard group routes: an ordinary operator that
    /// happens to be named `fan.split` copies its output to every
    /// successor, so each gets the full propagated rate.
    #[test]
    fn unsharded_split_named_node_copies_full_rate() {
        let m = model(vec![
            src("src", 1_000.0),
            ModelNode { rate: Some(1_000.0), ..op("fan.split", &[0], 1_000.0, None) },
            op("a", &[1], 1_000.0, None),
            op("b", &[1], 1_000.0, None),
        ]);
        let report = analyze(&m, &[], &CapacityConfig::default());
        for name in ["a", "b"] {
            let x = report.nodes.iter().find(|x| x.name == name).unwrap();
            assert!((x.rate - 1_000.0).abs() < 1e-9, "{name} rate: {}", x.rate);
        }
        assert!(report.shards.is_empty());
    }

    #[test]
    fn no_model_means_no_report() {
        let obs = Obs::enabled();
        assert!(obs.graph_model().is_none());
        // install() without a registered model is inert but harmless.
        install(&obs, CapacityConfig::default());
        obs.run_collectors();
        assert!(obs.metrics_snapshot().iter().all(|(n, _)| !n.starts_with("capacity.")));
    }
}
