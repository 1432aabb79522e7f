//! Runtime measurement of the scheduling metadata.
//!
//! The queue-placement heuristic assumes that the per-element processing
//! cost `c(v)` and the mean inter-arrival time `d(v)` of every operator
//! "are meta data provided by the DSMS during runtime" (§5.1.3). The engine
//! provides them here: every source driver and partition executor feeds one
//! lock-free [`NodeStats`] cell per node — exponentially weighted moving
//! averages of observed costs and arrival gaps (estimated online rather than
//! from kept histories, as the paper's companion work \[5\] motivates), plus
//! exact element and output counts for the selectivity. Every reader (the
//! engine's [`StatsSnapshot`], the `node.*` gauges of `/metrics`, the
//! capacity model behind `/analyze`) goes through [`NodeStats::read`]. The
//! snapshot converts into the [`hmts_graph::cost::CostInputs`] that
//! placement and the Chain strategy consume — closing the measure →
//! partition → re-schedule loop.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hmts_graph::cost::CostInputs;
use hmts_graph::graph::NodeId;
use hmts_graph::topology::Topology;
use hmts_streams::time::Timestamp;

/// Weight of the newest observation in the cost average `c(v)`.
const COST_ALPHA: f64 = 0.2;
/// Weight of the newest gap in the inter-arrival average `d(v)`.
const GAP_ALPHA: f64 = 0.1;
/// Bits of an average that has no observation yet: a NaN pattern that no
/// arithmetic on finite observations produces.
const EMPTY: u64 = u64::MAX;

/// Live statistics of one node: a cell of atomics, read without locking.
///
/// **One writer at a time.** [`observe`](NodeStats::observe) is called
/// only by the node's source driver thread, or by the executor that hosts
/// the node's slot (pooled executors run under their `Mutex`); a re-wiring
/// joins the old executor threads before new ones take the cell over. The
/// counts use `fetch_add` and stay exact under any number of writers; the
/// two averages are load/compute/store, which the single-writer invariant
/// keeps free of lost updates. Any number of readers may call
/// [`read`](NodeStats::read) concurrently.
#[derive(Debug)]
pub struct NodeStats {
    /// Elements observed.
    processed: AtomicU64,
    /// Outputs produced by those elements.
    outputs: AtomicU64,
    /// Cost average in seconds, as `f64` bits ([`EMPTY`] until the first
    /// timed element).
    cost: AtomicU64,
    /// Inter-arrival gap average in seconds, as `f64` bits ([`EMPTY`] until
    /// the first in-order gap).
    gap: AtomicU64,
    /// Timestamp of the last element, in microseconds (meaningful once
    /// `processed > 0`).
    last_ts: AtomicU64,
}

/// One reading of a [`NodeStats`] cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsReading {
    /// Measured per-element cost `c(v)`, once an element was timed.
    pub cost: Option<Duration>,
    /// Outputs per input, once an element was processed.
    pub selectivity: Option<f64>,
    /// Input rate `1/d(v)` in elements/second of stream time, once a
    /// positive mean gap was observed.
    pub rate: Option<f64>,
    /// Elements processed.
    pub processed: u64,
}

impl Default for NodeStats {
    fn default() -> Self {
        NodeStats {
            processed: AtomicU64::new(0),
            outputs: AtomicU64::new(0),
            cost: AtomicU64::new(EMPTY),
            gap: AtomicU64::new(EMPTY),
            last_ts: AtomicU64::new(0),
        }
    }
}

impl NodeStats {
    /// Records one processed element stamped `ts` that took `cost` (when
    /// timed) and produced `outputs` elements.
    pub fn observe(&self, ts: Timestamp, cost: Option<Duration>, outputs: u64) {
        if let Some(c) = cost {
            ewma_update(&self.cost, COST_ALPHA, c.as_secs_f64());
        }
        if self.processed.load(Ordering::Relaxed) > 0 {
            let prev = Timestamp(self.last_ts.load(Ordering::Relaxed));
            // Time going backwards (out-of-order input) moves `last` but
            // contributes no gap.
            if ts >= prev {
                ewma_update(&self.gap, GAP_ALPHA, ts.since(prev).as_secs_f64());
            }
        }
        self.last_ts.store(ts.0, Ordering::Relaxed);
        // Outputs before the count it is divided by, so a reader never
        // sees an element counted without its outputs.
        self.outputs.fetch_add(outputs, Ordering::Relaxed);
        self.processed.fetch_add(1, Ordering::Release);
    }

    /// The cell's current cost, selectivity, rate and count.
    pub fn read(&self) -> StatsReading {
        let processed = self.processed.load(Ordering::Acquire);
        let outputs = self.outputs.load(Ordering::Relaxed);
        StatsReading {
            cost: ewma_value(&self.cost).map(Duration::from_secs_f64),
            selectivity: (processed > 0).then(|| outputs as f64 / processed as f64),
            rate: ewma_value(&self.gap).filter(|&g| g > 0.0).map(|g| 1.0 / g),
            processed,
        }
    }
}

/// Folds `x` into the average stored in `cell`; the first observation is
/// taken exactly. Load/compute/store: callers are the cell's one writer.
fn ewma_update(cell: &AtomicU64, alpha: f64, x: f64) {
    let next = match ewma_value(cell) {
        None => x,
        Some(v) => v + alpha * (x - v),
    };
    cell.store(next.to_bits(), Ordering::Relaxed);
}

/// The average stored in `cell`, or `None` before any observation.
fn ewma_value(cell: &AtomicU64) -> Option<f64> {
    let bits = cell.load(Ordering::Relaxed);
    (bits != EMPTY).then(|| f64::from_bits(bits))
}

/// Shared handle to one node's statistics (one writer, any readers).
pub type SharedNodeStats = Arc<NodeStats>;

/// Creates a fresh shared statistics cell (convenience for harnesses that
/// drive a [`crate::engine::executor::DomainExecutor`] directly).
pub fn shared_node_stats() -> SharedNodeStats {
    Arc::new(NodeStats::default())
}

/// An immutable snapshot of one node's statistics.
#[derive(Debug, Clone)]
pub struct NodeStatsSnapshot {
    /// The node.
    pub node: NodeId,
    /// The node's name.
    pub name: String,
    /// Measured per-element cost, if any element was processed.
    pub cost: Option<Duration>,
    /// Measured selectivity, if any element was processed.
    pub selectivity: Option<f64>,
    /// Measured input rate (elements/second of stream time), if observable.
    pub rate: Option<f64>,
    /// Total elements processed.
    pub processed: u64,
}

/// Statistics for every node of a topology.
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    /// Per-node snapshots, indexed by node id.
    pub nodes: Vec<NodeStatsSnapshot>,
}

impl StatsSnapshot {
    /// Collects a snapshot from the shared per-node stats.
    pub fn collect(topo: &Topology, stats: &[SharedNodeStats]) -> StatsSnapshot {
        let nodes = stats
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let r = s.read();
                NodeStatsSnapshot {
                    node: NodeId(i),
                    name: topo.name(NodeId(i)).to_string(),
                    cost: r.cost,
                    selectivity: r.selectivity,
                    rate: r.rate,
                    processed: r.processed,
                }
            })
            .collect();
        StatsSnapshot { nodes }
    }

    /// The snapshot of one node.
    pub fn node(&self, id: NodeId) -> &NodeStatsSnapshot {
        &self.nodes[id.0]
    }

    /// Converts measured statistics into placement inputs: measured source
    /// rates, operator costs, and selectivities, where observed.
    pub fn to_cost_inputs(&self, topo: &Topology) -> CostInputs {
        let mut inputs = CostInputs::default();
        for snap in &self.nodes {
            if topo.is_source(snap.node) {
                if let Some(r) = snap.rate {
                    inputs.source_rates.insert(snap.node, r);
                }
            } else {
                if let Some(c) = snap.cost {
                    inputs.costs.insert(snap.node, c);
                }
                if let Some(s) = snap.selectivity {
                    inputs.selectivities.insert(snap.node, s);
                }
            }
        }
        inputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmts_graph::graph::QueryGraph;
    use hmts_operators::expr::Expr;
    use hmts_operators::filter::Filter;
    use hmts_operators::traits::Source;
    use hmts_streams::tuple::Tuple;

    struct S;
    impl Source for S {
        fn name(&self) -> &str {
            "s"
        }
        fn next(&mut self) -> Option<(Timestamp, Tuple)> {
            None
        }
    }

    fn topo() -> Topology {
        let mut g = QueryGraph::new();
        let s = g.add_source(Box::new(S));
        let f = g.add_operator(Box::new(Filter::new("f", Expr::bool(true))));
        g.connect(s, f);
        g.decompose().0
    }

    #[test]
    fn observe_accumulates() {
        let n = NodeStats::default();
        n.observe(Timestamp::from_millis(10), Some(Duration::from_micros(5)), 1);
        n.observe(Timestamp::from_millis(20), Some(Duration::from_micros(5)), 0);
        let r = n.read();
        assert_eq!(r.processed, 2);
        assert_eq!(r.selectivity, Some(0.5));
        assert!(r.cost.unwrap() >= Duration::from_micros(4));
        assert!((1.0 / r.rate.unwrap() - 0.01).abs() < 1e-6);
    }

    #[test]
    fn empty_cell_reads_none() {
        let r = NodeStats::default().read();
        assert_eq!(r, StatsReading { cost: None, selectivity: None, rate: None, processed: 0 });
        // One element: selectivity and count, but no gap yet, and no cost
        // when the element was not timed.
        let n = NodeStats::default();
        n.observe(Timestamp::from_secs(1), None, 3);
        let r = n.read();
        assert_eq!((r.processed, r.selectivity, r.cost, r.rate), (1, Some(3.0), None, None));
    }

    #[test]
    fn first_cost_observation_is_exact() {
        let n = NodeStats::default();
        n.observe(Timestamp::ZERO, Some(Duration::from_micros(10)), 1);
        assert_eq!(n.read().cost, Some(Duration::from_micros(10)));
        // Untimed elements leave the average alone.
        n.observe(Timestamp::ZERO, None, 1);
        assert_eq!(n.read().cost, Some(Duration::from_micros(10)));
    }

    #[test]
    fn cost_average_converges_toward_new_level() {
        let n = NodeStats::default();
        n.observe(Timestamp::ZERO, Some(Duration::ZERO), 1);
        for _ in 0..100 {
            n.observe(Timestamp::ZERO, Some(Duration::from_micros(100)), 1);
        }
        let est = n.read().cost.unwrap();
        assert!(est >= Duration::from_micros(99) && est <= Duration::from_micros(101), "{est:?}");
        // α = 0.2 exactly: one step from 0 toward 100 µs lands on 20 µs.
        let n = NodeStats::default();
        n.observe(Timestamp::ZERO, Some(Duration::ZERO), 1);
        n.observe(Timestamp::ZERO, Some(Duration::from_micros(100)), 1);
        let step = n.read().cost.unwrap().as_secs_f64();
        assert!((step - 20e-6).abs() < 1e-12, "step={step}");
    }

    #[test]
    fn cost_average_tracks_steady_duration() {
        let n = NodeStats::default();
        assert_eq!(n.read().cost, None);
        for _ in 0..50 {
            n.observe(Timestamp::ZERO, Some(Duration::from_micros(100)), 1);
        }
        let r = n.read();
        let est = r.cost.unwrap();
        assert!(est >= Duration::from_micros(99) && est <= Duration::from_micros(101), "{est:?}");
        assert_eq!(r.processed, 50);
    }

    #[test]
    fn rate_measures_gaps() {
        let n = NodeStats::default();
        for i in 0..100u64 {
            n.observe(Timestamp::from_millis(i * 10), None, 1);
        }
        let r = n.read();
        assert!((1.0 / r.rate.unwrap() - 0.010).abs() < 1e-4);
        assert!((r.rate.unwrap() - 100.0).abs() < 2.0, "rate={:?}", r.rate);
        assert_eq!(r.processed, 100);
        // α = 0.1 exactly: a 10 ms gap level, then one 20 ms gap.
        n.observe(Timestamp::from_millis(1010), None, 1);
        let gap = 1.0 / n.read().rate.unwrap();
        assert!((gap - (0.010 + 0.1 * 0.010)).abs() < 1e-9, "gap={gap}");
    }

    #[test]
    fn rate_ignores_time_going_backwards() {
        let n = NodeStats::default();
        n.observe(Timestamp::from_secs(10), None, 1);
        n.observe(Timestamp::from_secs(5), None, 1); // ignored gap
        n.observe(Timestamp::from_secs(6), None, 1);
        assert!((n.read().rate.unwrap() - 1.0).abs() < 1e-9);
        // Equal timestamps are a zero gap: no observable rate.
        let n = NodeStats::default();
        n.observe(Timestamp::from_secs(1), None, 1);
        n.observe(Timestamp::from_secs(1), None, 1);
        assert_eq!(n.read().rate, None);
    }

    #[test]
    fn selectivity_is_outputs_over_inputs() {
        let n = NodeStats::default();
        for outputs in [0, 1, 1, 0] {
            n.observe(Timestamp::ZERO, None, outputs);
        }
        let r = n.read();
        assert_eq!(r.selectivity, Some(0.5));
        assert_eq!(r.processed, 4);
    }

    #[test]
    fn concurrent_reader_sees_monotone_counts_and_exact_totals() {
        const N: u64 = 200_000;
        let cell = shared_node_stats();
        let writer = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                // Outputs cycle 0, 1, 2.
                for i in 0..N {
                    cell.observe(Timestamp::from_micros(i), Some(Duration::from_nanos(i)), i % 3);
                }
            })
        };
        let mut last = 0;
        loop {
            let done = writer.is_finished();
            let r = cell.read();
            assert!(r.processed >= last, "processed went back: {last} -> {}", r.processed);
            last = r.processed;
            if done {
                break;
            }
        }
        writer.join().expect("writer thread");
        let r = cell.read();
        assert_eq!(r.processed, N);
        let outputs: u64 = (0..N).map(|i| i % 3).sum();
        assert_eq!(r.selectivity, Some(outputs as f64 / N as f64));
        assert!((r.rate.unwrap() - 1e6).abs() < 1.0, "rate={:?}", r.rate);
    }

    #[test]
    fn snapshot_collects_and_converts() {
        let topo = topo();
        let stats: Vec<SharedNodeStats> = (0..2).map(|_| shared_node_stats()).collect();
        // Source saw elements 100 ms apart (rate 10/s); filter halves.
        for i in 0..50u64 {
            stats[0].observe(Timestamp::from_millis(i * 100), None, 1);
            stats[1].observe(
                Timestamp::from_millis(i * 100),
                Some(Duration::from_micros(2)),
                i % 2,
            );
        }
        let snap = StatsSnapshot::collect(&topo, &stats);
        assert_eq!(snap.node(NodeId(1)).name, "f");
        assert_eq!(snap.node(NodeId(1)).processed, 50);
        let rate = snap.node(NodeId(0)).rate.unwrap();
        assert!((rate - 10.0).abs() < 0.5, "rate={rate}");

        let inputs = snap.to_cost_inputs(&topo);
        assert!(inputs.source_rates.contains_key(&NodeId(0)));
        assert!(inputs.costs.contains_key(&NodeId(1)));
        let sel = inputs.selectivities[&NodeId(1)];
        assert!((sel - 0.5).abs() < 0.05, "sel={sel}");
    }

    #[test]
    fn empty_stats_produce_empty_inputs() {
        let topo = topo();
        let stats: Vec<SharedNodeStats> = (0..2).map(|_| shared_node_stats()).collect();
        let snap = StatsSnapshot::collect(&topo, &stats);
        let inputs = snap.to_cost_inputs(&topo);
        assert!(inputs.source_rates.is_empty());
        assert!(inputs.costs.is_empty());
        assert!(inputs.selectivities.is_empty());
        assert_eq!(snap.node(NodeId(0)).processed, 0);
    }
}
