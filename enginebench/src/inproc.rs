//! The in-process workloads (`chain_gts`, `chain_di`, `shard_agg`): seeded
//! input generation, reference results, graph construction, and one timed
//! engine round.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use hmts::operators::cost::{CostMode, Costed};
use hmts::operators::traits::{Operator, Output, Source};
use hmts::prelude::*;
use hmts::streams::element::Element;
use hmts::streams::error::Result as StreamResult;
use hmts::workload::scenarios::Fig7Params;
use hmts_net::wire::{encode_frame, Frame};
use hmts_shard::{remap_partitioning, shard_by_name, HashPartitioner, ShardSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::rounds::RoundStats;
use crate::stats::process_cpu_s;

/// Input tuples per chain round (the Fig. 7 `m`).
pub const CHAIN_TUPLES: u64 = 200_000;
/// Input tuples per sharded-aggregate round.
pub const SHARD_TUPLES: u64 = 100_000;
/// Distinct aggregation keys.
pub const SHARD_KEYS: i64 = 1024;
/// Replicas of the sharded aggregate.
pub const SHARDS: usize = 2;
/// Busy-work per aggregated element (the per-element cost of the keyed
/// operator, small enough that the engine path stays visible).
pub const AGG_COST: Duration = Duration::from_micros(2);
/// Sliding window of the aggregate; flat-out inputs are 1 µs apart, so
/// about 10 000 elements are live at a time.
pub const AGG_WINDOW: Duration = Duration::from_millis(10);

/// What a finished round delivered, against what it should have.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Check {
    /// Results the reference predicts.
    pub expected: u64,
    /// Missing, surplus or wrong results.
    pub failed: u64,
}

/// Verifies a round's sink output once the engine has finished.
pub type Checker = Box<dyn FnOnce(&SinkOutput) -> Check>;

/// Everything one round needs: the graph, the plan, where the sink's
/// output lands, and how to check it.
pub struct Built {
    /// The query graph (after any sharding rewrite).
    pub graph: QueryGraph,
    /// How to run it.
    pub plan: ExecutionPlan,
    /// The sink's output, published at end of stream.
    pub out: SinkCell,
    /// Verifies the output after the run.
    pub check: Checker,
}

/// Builds one round's graph from inputs cloned before the timer starts.
pub type Builder = Box<dyn FnOnce() -> Built>;

/// An in-process workload: a flat-out input set and an open-loop one,
/// each with its reference.
pub trait InProcWorkload {
    /// Input tuples per round.
    fn tuples(&self, paced: bool) -> u64;
    /// Clones the inputs (untimed) and returns the timed graph build.
    /// `paced` rounds feed the open-loop inputs through a [`PacedSource`]
    /// and record per-result latency.
    fn prepare(&self, paced: bool) -> Builder;
}

/// Runs one round of `tuples` inputs: set-up, run to completion, verify.
pub fn run_round(builder: Builder, tuples: u64, obs: Obs) -> Result<RoundStats, String> {
    let t0 = Instant::now();
    let Built { graph, plan, out, check } = builder();
    let cfg = EngineConfig { pace_sources: false, obs, ..EngineConfig::default() };
    let mut engine = Engine::with_config(graph, plan, cfg).map_err(|e| e.to_string())?;
    let cpu0 = process_cpu_s();
    let t_start = Instant::now();
    engine.start().map_err(|e| e.to_string())?;
    let setup_s = t0.elapsed().as_secs_f64();
    let report = engine.wait();
    let wall_s = t_start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let output = out.lock().expect("sink cell").take().unwrap_or_default();
    let mut check = check(&output);
    check.failed += (report.errors.len() + report.worker_panics.len()) as u64;
    Ok(RoundStats {
        setup_s,
        wall_s,
        cpu_s,
        tuples,
        latencies_ns: output.latencies_ns,
        lateness_ns: Vec::new(),
        ingest: None,
        report,
        check,
    })
}

/// A source replaying `(due, tuple)` pairs open loop: each `next` sleeps
/// until the tuple's due instant (its timestamp, in µs after the first
/// call) and returns tuples already due at once. Sleeping instead of the
/// engine's own pacing keeps the source from spinning a core.
pub struct PacedSource {
    items: std::vec::IntoIter<(Timestamp, Tuple)>,
    epoch: Arc<OnceLock<Instant>>,
}

impl PacedSource {
    /// A source over `items` and the epoch cell its first `next` fills.
    pub fn new(items: Vec<(Timestamp, Tuple)>) -> (PacedSource, Arc<OnceLock<Instant>>) {
        let epoch = Arc::new(OnceLock::new());
        (PacedSource { items: items.into_iter(), epoch: Arc::clone(&epoch) }, epoch)
    }
}

impl Source for PacedSource {
    fn name(&self) -> &str {
        "src"
    }

    fn next(&mut self) -> Option<(Timestamp, Tuple)> {
        let item = self.items.next()?;
        let epoch = *self.epoch.get_or_init(Instant::now);
        let due = Duration::from_micros(item.0.as_micros());
        let now = epoch.elapsed();
        if due > now {
            std::thread::sleep(due - now);
        }
        Some(item)
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.items.len() as u64)
    }
}

/// Re-stamps `items` `gap` apart (the open-loop schedule).
pub fn restamp(items: &[(Timestamp, Tuple)], gap: Duration) -> Vec<(Timestamp, Tuple)> {
    let gap_us = gap.as_micros() as u64;
    items
        .iter()
        .enumerate()
        .map(|(i, (_, t))| (Timestamp::from_micros(i as u64 * gap_us), t.clone()))
        .collect()
}

/// A source for `items`: flat out, or paced with its epoch cell.
fn source(
    items: Vec<(Timestamp, Tuple)>,
    paced: bool,
) -> (Box<dyn Source>, Option<Arc<OnceLock<Instant>>>) {
    if paced {
        let (s, epoch) = PacedSource::new(items);
        (Box::new(s), Some(epoch))
    } else {
        (Box::new(VecSource::new("src", items)), None)
    }
}

/// Order-sensitive checksum step over result values.
pub fn fold(h: u64, v: i64) -> u64 {
    (h ^ v as u64).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(5)
}

/// The FNV offset basis the checksum starts from.
pub const FOLD_SEED: u64 = 0xcbf2_9ce4_8422_2325;

// ---------------------------------------------------------------- chains

/// The Fig. 7 chain's inputs and the cumulative selection thresholds.
pub struct ChainInputs {
    /// `(due, tuple)` pairs, pre-generated from the seed.
    pub items: Vec<(Timestamp, Tuple)>,
    /// Selection `i` passes values below `thresholds[i]`.
    pub thresholds: Vec<i64>,
    /// Wall time spent generating, per tuple.
    pub gen_ns_per_tuple: f64,
}

/// Draws `m` Fig. 7 inputs from `seed` with the workload crate's own
/// generator, and derives the selection thresholds exactly as
/// `fig7_chain` does (selectivities 0.998 … 0.990 over uniform values).
pub fn chain_inputs(seed: u64, m: u64) -> ChainInputs {
    let p = Fig7Params { elements: m, seed, ..Fig7Params::default() };
    let t0 = Instant::now();
    let mut src = SyntheticSource::new(
        "src",
        ArrivalProcess::constant(p.rate),
        TupleGen::uniform_int(0, p.value_range.max(1)),
        m,
        seed,
    );
    let mut items = Vec::with_capacity(m as usize);
    while let Some(item) = src.next() {
        items.push(item);
    }
    let gen_ns_per_tuple = t0.elapsed().as_nanos() as f64 / m.max(1) as f64;
    let mut cumulative = 1.0;
    let thresholds = p
        .selectivities
        .iter()
        .map(|s| {
            cumulative *= s;
            (p.value_range as f64 * cumulative).round() as i64
        })
        .collect();
    ChainInputs { items, thresholds, gen_ns_per_tuple }
}

/// The selections of the chain, upstream first.
pub fn chain_filters(thresholds: &[i64]) -> Vec<Filter> {
    thresholds
        .iter()
        .enumerate()
        .map(|(i, &t)| Filter::new(format!("sel_{i}"), Expr::field(0).lt(Expr::int(t))))
        .collect()
}

/// Reference fold: `(count, checksum)` of the values surviving every
/// selection, in input order.
pub fn chain_reference(items: &[(Timestamp, Tuple)], thresholds: &[i64]) -> (u64, u64) {
    let mut count = 0;
    let mut h = FOLD_SEED;
    for (_, t) in items {
        let v = int_field(t, 0);
        if thresholds.iter().all(|&th| v < th) {
            count += 1;
            h = fold(h, v);
        }
    }
    (count, h)
}

fn int_field(t: &Tuple, i: usize) -> i64 {
    t.field(i).as_int().expect("integer field")
}

/// What a [`ResultSink`] saw, published at end of stream.
#[derive(Debug, Default)]
pub struct SinkOutput {
    /// Results received.
    pub count: u64,
    /// Order-sensitive checksum of field 0 of every result.
    pub checksum: u64,
    /// Wire image of every result (when kept).
    pub bytes: Vec<u8>,
    /// Due → arrival latency per result (ns; paced rounds only).
    pub latencies_ns: Vec<u64>,
}

/// Where a [`ResultSink`] publishes its [`SinkOutput`].
pub type SinkCell = Arc<Mutex<Option<SinkOutput>>>;

/// The benchmark's result sink: counts, checksums, optionally keeps the
/// wire image, and, given the source's epoch, records each result's
/// latency from its due instant (its timestamp).
pub struct ResultSink {
    acc: SinkOutput,
    keep_bytes: bool,
    epoch: Option<Arc<OnceLock<Instant>>>,
    cell: SinkCell,
}

impl ResultSink {
    /// A sink and the cell its output lands in.
    pub fn new(
        keep_bytes: bool,
        epoch: Option<Arc<OnceLock<Instant>>>,
        capacity: usize,
    ) -> (ResultSink, SinkCell) {
        let cell = SinkCell::default();
        let acc = SinkOutput {
            checksum: FOLD_SEED,
            bytes: Vec::with_capacity(if keep_bytes { capacity * 32 } else { 0 }),
            latencies_ns: Vec::with_capacity(if epoch.is_some() { capacity } else { 0 }),
            ..SinkOutput::default()
        };
        (ResultSink { acc, keep_bytes, epoch, cell: Arc::clone(&cell) }, cell)
    }
}

impl Operator for ResultSink {
    fn name(&self) -> &str {
        "results"
    }

    fn process(&mut self, _port: usize, e: &Element, _out: &mut Output) -> StreamResult<()> {
        if let Some(epoch) = self.epoch.as_ref().and_then(|c| c.get()) {
            let at = epoch.elapsed().as_nanos() as u64;
            self.acc.latencies_ns.push(at.saturating_sub(e.ts.as_micros() * 1_000));
        }
        self.acc.count += 1;
        self.acc.checksum = fold(self.acc.checksum, e.tuple.field(0).as_int()?);
        if self.keep_bytes {
            encode_result(&mut self.acc.bytes, e);
        }
        Ok(())
    }

    fn flush(&mut self, _out: &mut Output) -> StreamResult<()> {
        *self.cell.lock().expect("sink cell") = Some(std::mem::take(&mut self.acc));
        Ok(())
    }
}

/// Builds the chain graph (source → five selections → result sink).
pub fn chain_graph(
    items: Vec<(Timestamp, Tuple)>,
    thresholds: &[i64],
    paced: bool,
) -> (QueryGraph, SinkCell) {
    let capacity = items.len();
    let (src, epoch) = source(items, paced);
    let mut graph = QueryGraph::new();
    let mut prev = graph.add_source(src);
    for f in chain_filters(thresholds) {
        let id = graph.add_operator(Box::new(f));
        graph.connect(prev, id);
        prev = id;
    }
    let (sink, cell) = ResultSink::new(false, epoch, capacity);
    let sink = graph.add_operator(Box::new(sink));
    graph.connect(prev, sink);
    (graph, cell)
}

/// Compares a chain round's sink output with the reference.
pub fn chain_check(got: (u64, u64), expect: (u64, u64)) -> Check {
    let failed = if got == expect { 0 } else { got.0.abs_diff(expect.0).max(1) };
    Check { expected: expect.0, failed }
}

/// `chain_gts` (GTS, FIFO, one thread) or `chain_di` (decoupled DI).
pub struct ChainWorkload {
    /// The seeded flat-out inputs.
    pub inputs: ChainInputs,
    /// The same values re-stamped on the open-loop schedule.
    pub paced: Vec<(Timestamp, Tuple)>,
    /// The reference `(count, checksum)` of the flat-out / paced inputs.
    pub expect: [(u64, u64); 2],
    /// GTS (`true`) or decoupled DI (`false`).
    pub gts: bool,
}

impl ChainWorkload {
    /// Generates the inputs and the references for `seed`.
    pub fn new(seed: u64, gts: bool, paced_tuples: usize, gap: Duration) -> ChainWorkload {
        let inputs = chain_inputs(seed, CHAIN_TUPLES);
        let paced = restamp(&inputs.items[..paced_tuples.min(inputs.items.len())], gap);
        let expect = [
            chain_reference(&inputs.items, &inputs.thresholds),
            chain_reference(&paced, &inputs.thresholds),
        ];
        ChainWorkload { inputs, paced, expect, gts }
    }
}

impl InProcWorkload for ChainWorkload {
    fn tuples(&self, paced: bool) -> u64 {
        if paced {
            self.paced.len() as u64
        } else {
            self.inputs.items.len() as u64
        }
    }

    fn prepare(&self, paced: bool) -> Builder {
        let items = if paced { self.paced.clone() } else { self.inputs.items.clone() };
        let thresholds = self.inputs.thresholds.clone();
        let (expect, gts) = (self.expect[paced as usize], self.gts);
        Box::new(move || {
            let (graph, out) = chain_graph(items, &thresholds, paced);
            let topo = Topology::of(&graph);
            let plan = if gts {
                ExecutionPlan::gts(&topo, StrategyKind::Fifo)
            } else {
                ExecutionPlan::di_decoupled(&topo)
            };
            let check = Box::new(move |o: &SinkOutput| chain_check((o.count, o.checksum), expect));
            Built { graph, plan, out, check }
        })
    }
}

// ------------------------------------------------------ sharded aggregate

/// `m` keyed inputs `(key, value)` drawn from `seed`, `gap` apart. Keys
/// alternate between the replicas' hash partitions so that consecutive
/// tuples always hit different shards (the merge's worst case, the
/// replicas' best case).
pub fn shard_inputs(seed: u64, m: u64, gap: Duration) -> Vec<(Timestamp, Tuple)> {
    let gap_us = gap.as_micros() as u64;
    let part = HashPartitioner::new(SHARDS);
    let mut pools: Vec<Vec<i64>> = vec![Vec::new(); SHARDS];
    for k in 0..SHARD_KEYS {
        pools[part.shard_of(&Value::Int(k)) as usize].push(k);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .map(|i| {
            let pool = &pools[(i as usize) % SHARDS];
            let key = pool[rng.gen_range(0..pool.len())];
            let value = rng.gen_range(0..1000i64);
            (Timestamp::from_micros((i + 1) * gap_us), Tuple::pair(key, value))
        })
        .collect()
}

/// The keyed SUM aggregate (uncosted).
pub fn keyed_sum() -> WindowAggregate {
    WindowAggregate::new("agg", AggregateFunction::Sum(1), AGG_WINDOW).group_by(Expr::field(0))
}

/// Appends a result element to `buf` in wire encoding — the byte image
/// two runs are compared by.
pub fn encode_result(buf: &mut Vec<u8>, e: &Element) {
    encode_frame(&Frame::Data { ts: e.ts, tuple: e.tuple.clone(), trace: TraceTag::NONE }, buf);
}

/// Reference: the unsharded aggregate applied to the inputs in order.
pub fn shard_reference(items: &[(Timestamp, Tuple)]) -> (u64, Vec<u8>) {
    let mut agg = keyed_sum();
    let mut out = Output::new();
    let mut bytes = Vec::new();
    let mut n = 0;
    for (ts, t) in items {
        agg.process(0, &Element::new(t.clone(), *ts), &mut out).expect("aggregate");
        for e in out.drain() {
            encode_result(&mut bytes, &e);
            n += 1;
        }
    }
    agg.flush(&mut out).expect("aggregate flush");
    for e in out.drain() {
        encode_result(&mut bytes, &e);
        n += 1;
    }
    (n, bytes)
}

/// Builds source → costed keyed aggregate → result sink (keeping the wire
/// image), sharded `shards` ways (1 = unsharded) under the two-VO
/// partitioning `[agg] | [sink]`.
pub fn shard_graph(
    items: Vec<(Timestamp, Tuple)>,
    shards: usize,
    cost: Duration,
    paced: bool,
) -> (QueryGraph, Partitioning, SinkCell) {
    let capacity = items.len();
    let (src, epoch) = source(items, paced);
    let mut graph = QueryGraph::new();
    let source = graph.add_source(src);
    let agg = graph.add_operator(Box::new(Costed::new(keyed_sum(), CostMode::Busy(cost))));
    let (sink, cell) = ResultSink::new(true, epoch, capacity);
    let sink = graph.add_operator(Box::new(sink));
    graph.connect(source, agg);
    graph.connect(agg, sink);
    let partitioning = Partitioning::new(vec![vec![agg], vec![sink]]);
    if shards <= 1 {
        return (graph, partitioning, cell);
    }
    let rw = shard_by_name(graph, "agg", &ShardSpec::auto(shards)).expect("agg shards");
    let p = remap_partitioning(&partitioning, &rw);
    (rw.graph, p, cell)
}

/// Frame-by-frame comparison of a round's wire image with the reference.
pub fn bytes_check(got: (u64, &[u8]), expect: &(u64, Vec<u8>)) -> Check {
    let (count, bytes) = got;
    let failed = match () {
        _ if bytes == expect.1.as_slice() => 0,
        _ => {
            let frames = |b: &[u8]| {
                let mut out = Vec::new();
                let mut at = 0;
                while let Ok((f, used)) = hmts_net::wire::decode_frame(&b[at..]) {
                    out.push(f);
                    at += used;
                }
                out
            };
            let (g, e) = (frames(bytes), frames(&expect.1));
            let wrong = g.iter().zip(&e).filter(|(a, b)| a != b).count() as u64;
            (wrong + count.abs_diff(expect.0)).max(1)
        }
    };
    Check { expected: expect.0, failed }
}

/// `shard_agg`: the keyed aggregate split over [`SHARDS`] replicas and
/// merged back in order, under HMTS on a pooled level-3 scheduler.
pub struct ShardWorkload {
    /// The seeded flat-out inputs (1 µs apart) and the open-loop ones.
    pub items: [Vec<(Timestamp, Tuple)>; 2],
    /// The unsharded reference output of each input set.
    pub expect: [Arc<(u64, Vec<u8>)>; 2],
    /// Level-3 worker threads.
    pub workers: usize,
}

impl ShardWorkload {
    /// Generates the inputs and the references for `seed`.
    pub fn new(seed: u64, workers: usize, paced_tuples: usize, gap: Duration) -> ShardWorkload {
        let drain = shard_inputs(seed, SHARD_TUPLES, Duration::from_micros(1));
        let paced = shard_inputs(seed, paced_tuples as u64, gap);
        let expect = [Arc::new(shard_reference(&drain)), Arc::new(shard_reference(&paced))];
        ShardWorkload { items: [drain, paced], expect, workers }
    }
}

impl InProcWorkload for ShardWorkload {
    fn tuples(&self, paced: bool) -> u64 {
        self.items[paced as usize].len() as u64
    }

    fn prepare(&self, paced: bool) -> Builder {
        let items = self.items[paced as usize].clone();
        let expect = Arc::clone(&self.expect[paced as usize]);
        let workers = self.workers;
        Box::new(move || {
            let (graph, partitioning, out) = shard_graph(items, SHARDS, AGG_COST, paced);
            let plan = ExecutionPlan::hmts(partitioning, StrategyKind::Fifo, workers);
            let check = Box::new(move |o: &SinkOutput| bytes_check((o.count, &o.bytes), &expect));
            Built { graph, plan, out, check }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GAP: Duration = Duration::from_micros(20);

    #[test]
    fn chain_reference_matches_tiny_engine_runs() {
        for gts in [true, false] {
            let mut w = ChainWorkload::new(11, gts, 500, GAP);
            w.inputs.items.truncate(2_000);
            w.expect[0] = chain_reference(&w.inputs.items, &w.inputs.thresholds);
            assert!(w.expect[0].0 > 1_900 && w.expect[0].0 < 2_000, "≈97% survive");
            for paced in [false, true] {
                let round = run_round(w.prepare(paced), w.tuples(paced), Obs::disabled()).unwrap();
                let expected = w.expect[paced as usize].0;
                assert_eq!(round.check, Check { expected, failed: 0 });
                let samples = if paced { expected as usize } else { 0 };
                assert_eq!(round.latencies_ns.len(), samples);
            }
        }
    }

    #[test]
    fn chain_check_counts_missing_and_wrong() {
        assert_eq!(chain_check((10, 5), (10, 5)).failed, 0);
        assert_eq!(chain_check((7, 5), (10, 5)).failed, 3);
        assert_eq!(chain_check((10, 6), (10, 5)).failed, 1);
    }

    #[test]
    fn paced_source_waits_for_due_times() {
        let items =
            restamp(&vec![(Timestamp::ZERO, Tuple::single(1)); 50], Duration::from_micros(100));
        assert_eq!(items[49].0, Timestamp::from_micros(4_900));
        let (mut src, epoch) = PacedSource::new(items);
        while src.next().is_some() {}
        assert!(epoch.get().unwrap().elapsed() >= Duration::from_micros(4_900));
    }

    #[test]
    fn shard_reference_matches_tiny_unsharded_and_sharded_runs() {
        let items = shard_inputs(5, 3_000, Duration::from_micros(1));
        let expect = shard_reference(&items);
        assert_eq!(expect.0, 3_000, "one running sum per input");
        for shards in [1, 2] {
            let (graph, p, cell) = shard_graph(items.clone(), shards, Duration::ZERO, false);
            let plan = ExecutionPlan::hmts(p, StrategyKind::Fifo, 2);
            let cfg = EngineConfig { pace_sources: false, ..EngineConfig::default() };
            let report = Engine::run_with_config(graph, plan, cfg).unwrap();
            assert!(report.errors.is_empty());
            let got = cell.lock().unwrap().take().unwrap();
            assert_eq!(
                bytes_check((got.count, &got.bytes), &expect).failed,
                0,
                "shards = {shards}"
            );
        }
    }

    #[test]
    fn shard_inputs_alternate_shards_and_repeat_per_seed() {
        let items = shard_inputs(9, 64, GAP);
        assert_eq!(items, shard_inputs(9, 64, GAP));
        assert_ne!(items, shard_inputs(10, 64, GAP));
        let part = HashPartitioner::new(SHARDS);
        for (i, (ts, t)) in items.iter().enumerate() {
            assert_eq!(part.shard_of(t.field(0)) as usize, i % SHARDS);
            assert_eq!(*ts, Timestamp::from_micros(20 * (i as u64 + 1)));
        }
    }

    #[test]
    fn bytes_check_counts_wrong_frames() {
        let expect = shard_reference(&shard_inputs(1, 50, GAP));
        let other = shard_reference(&shard_inputs(2, 50, GAP));
        assert!(bytes_check((50, &other.1), &expect).failed > 0);
        assert_eq!(bytes_check((50, &expect.1), &expect).failed, 0);
    }
}
