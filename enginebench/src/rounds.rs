//! One interface over the four workloads: build from a seed and run one
//! flat-out or open-loop round.

use std::time::Duration;

use hmts::engine::EngineReport;
use hmts::obs::Obs;

use crate::inproc::{run_round, ChainWorkload, Check, InProcWorkload, ShardWorkload};
use crate::served::{run_served_round, served_reference, served_tuples, Schedule, DRAIN_TUPLES};
use crate::stats::{percentile, resolvable_percentile};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["chain_gts", "chain_di", "served", "shard_agg"];
/// Offered rate of every open-loop round (tuples/s); the gap is a whole
/// number of µs, so due stamps are exact.
pub const NOMINAL_RATE: f64 = 50_000.0;
/// Tuples per open-loop round (1 s at the nominal rate).
pub const PACED_TUPLES: usize = 50_000;
/// Rounds a run makes at least, however short its budget.
pub const MIN_ROUNDS: usize = 3;

/// What one round measured.
pub struct RoundStats {
    /// Set-up: graph, rewrite, engine, start (and socket binds).
    pub setup_s: f64,
    /// First input offered → last result received.
    pub wall_s: f64,
    /// Process CPU over that interval.
    pub cpu_s: f64,
    /// Input tuples.
    pub tuples: u64,
    /// Due → result latency per result (ns; open-loop rounds only).
    pub latencies_ns: Vec<u64>,
    /// Generator lateness per tuple (ns; served open-loop rounds only).
    pub lateness_ns: Vec<u64>,
    /// `(backpressure stall ns, ingest queue high water)` (served only).
    pub ingest: Option<(u64, usize)>,
    /// The engine's report.
    pub report: EngineReport,
    /// Output verification.
    pub check: Check,
}

impl RoundStats {
    /// Input tuples per second of wall time.
    pub fn throughput(&self) -> f64 {
        self.tuples as f64 / self.wall_s
    }
}

/// A workload ready to run rounds.
pub enum Workload {
    /// `chain_gts`, `chain_di` or `shard_agg`.
    InProc(Box<dyn InProcWorkload>),
    /// `served`, with its flat-out and open-loop inputs and references.
    Served {
        /// Flat-out inputs and their expected results.
        drain: (Vec<hmts::prelude::Tuple>, Vec<i64>),
        /// Open-loop inputs and their expected results.
        paced: (Vec<hmts::prelude::Tuple>, Vec<i64>),
        /// Level-3 worker threads.
        workers: usize,
    },
}

fn gap() -> Duration {
    Duration::from_nanos(Schedule::open_loop(NOMINAL_RATE).gap_ns)
}

impl Workload {
    /// Generates `name`'s inputs and references from `seed`.
    pub fn new(name: &str, seed: u64, workers: usize) -> Result<Workload, String> {
        Ok(match name {
            "chain_gts" => {
                Workload::InProc(Box::new(ChainWorkload::new(seed, true, PACED_TUPLES, gap())))
            }
            "chain_di" => {
                Workload::InProc(Box::new(ChainWorkload::new(seed, false, PACED_TUPLES, gap())))
            }
            "shard_agg" => {
                Workload::InProc(Box::new(ShardWorkload::new(seed, workers, PACED_TUPLES, gap())))
            }
            "served" => {
                let with_ref = |t: Vec<_>| {
                    let r = served_reference(&t);
                    (t, r)
                };
                Workload::Served {
                    drain: with_ref(served_tuples(seed, DRAIN_TUPLES)),
                    paced: with_ref(served_tuples(seed ^ 0x5eed, PACED_TUPLES as u64)),
                    workers,
                }
            }
            other => return Err(format!("unknown workload {other}")),
        })
    }

    /// Runs one round: flat out, or open loop at [`NOMINAL_RATE`].
    pub fn round(&self, paced: bool, obs: Obs) -> Result<RoundStats, String> {
        match self {
            Workload::InProc(w) => run_round(w.prepare(paced), w.tuples(paced), obs),
            Workload::Served { drain, paced: open, workers } => {
                let ((tuples, expect), sched) = if paced {
                    (open, Schedule::open_loop(NOMINAL_RATE))
                } else {
                    (drain, Schedule::flat_out())
                };
                run_served_round(tuples, expect, sched, obs, *workers)
            }
        }
    }
}

/// Latency percentiles of one open-loop round, for diagnostics.
pub fn describe_latency(name: &str, r: &RoundStats) -> String {
    let mut lat = r.latencies_ns.clone();
    lat.sort_unstable();
    let us = |p| percentile(&lat, p).map_or(f64::NAN, |v| v as f64 / 1e3);
    format!(
        "{name}: open loop at {NOMINAL_RATE} tuples/s: {} latency samples (p{:.3} resolvable): \
         p50 {:.1} us, p99 {:.1} us, p99.9 {:.1} us",
        lat.len(),
        resolvable_percentile(lat.len(), 10),
        us(50.0),
        us(99.0),
        us(99.9),
    )
}
