//! The traced run: per-layer costs measured from the outside, and the
//! ledger that adds them up.
//!
//! Every number here either times a public call the benchmark makes on
//! the workload's own elements (a queue push, a strategy select, an
//! operator's `process`, a wire encode, …) or reads a counter a layer
//! already exposes (`EngineReport::total_enqueued`, the `ts.*` obs
//! counters, `StatsSnapshot`, `IngestStats`, queue metrics). Nothing is
//! timed inside the engine. Each timed batch of calls is one span.
//!
//! Metrics of a layer the workload does not cross read 0.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use hmts::engine::executor::{Budget, DomainExecutor, ExecConfig, InputQueue, SlotInit, Target};
use hmts::operators::cost::{CostMode, Costed};
use hmts::operators::traits::{EosTracker, Operator, Output, WatermarkTracker};
use hmts::prelude::*;
use hmts::scheduler::strategy::InputSlot;
use hmts::stats::shared_node_stats;
use hmts::streams::queue::StreamQueue;
use hmts::workload::scenarios::Fig9Params;
use hmts_net::wire::{decode_frame, encode_frame, Frame};
use hmts_net::{EgressServer, SlowConsumerPolicy, SubscriberClient};
use hmts_shard::{names, OrderedMerge, ShardReplica, ShardSplit};

use crate::inproc::{
    chain_filters, chain_inputs, keyed_sum, shard_inputs, AGG_COST, CHAIN_TUPLES, SHARDS,
    SHARD_TUPLES,
};
use crate::rounds::{describe_latency, RoundStats, Workload};
use crate::served::{served_tuples, CHEAP_MAX, DRAIN_TUPLES, RESULT_MAX, SPEEDUP, STREAM};
use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::Outcome;

/// The per-layer metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("streams.queue.push_pop_ns", "ns"),
    ("streams.queue.handoff_ns", "ns"),
    ("streams.queue.crossings_per_tuple", "count"),
    ("scheduler.strategy.select_ns", "ns"),
    ("scheduler.thread_scheduler.dispatches_per_ktuple", "count"),
    ("scheduler.thread_scheduler.preemptions", "count"),
    ("engine.executor.di_chain_ns", "ns"),
    ("engine.executor.di_hop_self_ns", "ns"),
    ("engine.executor.slice_self_ns", "ns"),
    ("engine.run_ns_per_tuple", "ns"),
    ("operators.filter.process_ns", "ns"),
    ("operators.project.process_ns", "ns"),
    ("operators.aggregate.process_ns", "ns"),
    ("shard.split.process_ns", "ns"),
    ("shard.merge.process_ns", "ns"),
    ("shard.imbalance", "ratio"),
    ("net.wire.encode_ns", "ns"),
    ("net.wire.decode_ns", "ns"),
    ("net.wire.bytes_per_tuple", "bytes"),
    ("net.ingest.stall_ms", "ms"),
    ("net.ingest.queue_high_water", "count"),
    ("net.egress.process_ns", "ns"),
    ("gen.lateness_p99_us", "us"),
    ("e2e.open_loop_p50_us", "us"),
    ("e2e.open_loop_p99_us", "us"),
    ("workload.gen_ns_per_tuple", "ns"),
    ("ledger.attributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Repetitions of each micro-timing (the median is reported).
const REPS: usize = 3;
/// Messages per push/pop and per `run_slice` batch.
const CHUNK: usize = 256;

fn ns_per(d: Duration, n: usize) -> f64 {
    d.as_nanos() as f64 / n.max(1) as f64
}

fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&v)
}

fn messages(elements: &[Element]) -> Vec<Message> {
    elements.iter().cloned().map(Message::Data).collect()
}

/// `StreamQueue::push` then `try_pop` of each element on one thread, in
/// batches of [`CHUNK`]: ns per element.
pub fn push_pop_ns(elements: &[Element]) -> f64 {
    let q = StreamQueue::unbounded("bench.push_pop");
    let mut msgs = messages(elements).into_iter();
    let mut popped = Vec::with_capacity(CHUNK);
    let mut total = Duration::ZERO;
    loop {
        let chunk: Vec<Message> = msgs.by_ref().take(CHUNK).collect();
        let k = chunk.len();
        if k == 0 {
            break;
        }
        let t = Instant::now();
        for m in chunk {
            q.push(m).expect("unbounded push");
        }
        for _ in 0..k {
            popped.push(q.try_pop().expect("queued message"));
        }
        total += t.elapsed();
        popped.clear();
    }
    ns_per(total, elements.len())
}

/// `push` on this thread, `pop_blocking` on another: ns per element from
/// the first push to the last pop.
pub fn handoff_ns(elements: &[Element]) -> f64 {
    let q = StreamQueue::unbounded("bench.handoff");
    let msgs = messages(elements);
    let n = msgs.len();
    let consumer = {
        let q = Arc::clone(&q);
        thread::spawn(move || {
            let mut got = Vec::with_capacity(n);
            while got.len() < n {
                match q.pop_blocking() {
                    Some(m) => got.push(m),
                    None => break,
                }
            }
            (Instant::now(), got.len())
        })
    };
    let t0 = Instant::now();
    for m in msgs {
        q.push(m).expect("unbounded push");
    }
    let (end, got) = consumer.join().expect("handoff consumer");
    assert_eq!(got, n, "every handed-off message arrives");
    ns_per(end.duration_since(t0), n)
}

/// `StrategyKind::Fifo` `select` over `slots` non-empty inputs whose
/// heads carry the workload's timestamps: ns per call.
pub fn select_ns(slots: usize, elements: &[Element]) -> f64 {
    let view: Vec<InputSlot> = (0..slots)
        .map(|i| InputSlot {
            consumer: NodeId(i + 1),
            len: CHUNK,
            head_ts: elements.get(i * 7).map(|e| e.ts),
        })
        .collect();
    let mut strategy = StrategyKind::Fifo.build(None);
    let calls = 200_000;
    let t = Instant::now();
    for _ in 0..calls {
        black_box(strategy.select(black_box(&view)));
    }
    ns_per(t.elapsed(), calls)
}

/// Runs `elements` through `ops` in order (each on everything the one
/// before emitted), timing only the `process` calls. Returns each stage's
/// `(total ns, inputs)` and the last stage's outputs.
pub fn stage_costs(
    ops: &mut [Box<dyn Operator>],
    elements: &[Element],
) -> (Vec<(f64, usize)>, Vec<Element>) {
    let mut input = elements.to_vec();
    let mut costs = Vec::with_capacity(ops.len());
    let mut out = Output::new();
    for op in ops.iter_mut() {
        let t = Instant::now();
        for e in &input {
            op.process(0, e, &mut out).expect("operator accepts the workload's tuples");
        }
        costs.push((t.elapsed().as_nanos() as f64, input.len()));
        input = out.drain().collect();
    }
    (costs, input)
}

fn slot(node: usize, op: Box<dyn Operator>, targets: Vec<Target>) -> SlotInit {
    SlotInit {
        node: NodeId(node),
        op,
        eos: EosTracker::new(1),
        wm: WatermarkTracker::new(1),
        closed: false,
        targets,
        stats: Some(shared_node_stats()),
        latency: None,
        chaos: None,
    }
}

fn executor(
    name: &str,
    ops: Vec<Box<dyn Operator>>,
    queued: bool,
) -> (DomainExecutor, Vec<Arc<StreamQueue>>) {
    let stages = ops.len() + 1;
    let queues: Vec<Arc<StreamQueue>> = if queued {
        (0..stages).map(|i| StreamQueue::unbounded(format!("bench.q{i}"))).collect()
    } else {
        Vec::new()
    };
    let mut slots: Vec<SlotInit> = ops
        .into_iter()
        .enumerate()
        .map(|(i, op)| {
            let target = if queued {
                Target::Queue { queue: Arc::clone(&queues[i + 1]), wake: None }
            } else {
                Target::Inline { node: NodeId(i + 2), port: 0 }
            };
            slot(i + 1, op, vec![target])
        })
        .collect();
    slots.push(slot(stages, Box::new(NullSink::new("bench.sink")), Vec::new()));
    let inputs = queues
        .iter()
        .enumerate()
        .map(|(i, q)| InputQueue {
            queue: Arc::clone(q),
            node: NodeId(i + 1),
            port: 0,
            exhausted: false,
        })
        .collect();
    let exec = DomainExecutor::new(
        name,
        slots,
        inputs,
        StrategyKind::Fifo.build(None),
        ExecConfig::default(),
    );
    (exec, queues)
}

/// `DomainExecutor::inject` of each element into an inline (DI) chain of
/// `ops` ending in a null sink: ns per element.
pub fn di_chain_ns(ops: Vec<Box<dyn Operator>>, elements: &[Element]) -> f64 {
    let (mut exec, _) = executor("bench.di", ops, false);
    let msgs = messages(elements);
    let t = Instant::now();
    for m in msgs {
        exec.inject(NodeId(1), 0, m);
    }
    let ns = ns_per(t.elapsed(), elements.len());
    assert!(exec.error().is_none(), "DI chain error: {:?}", exec.error());
    ns
}

/// `DomainExecutor::run_slice` over a domain in which every one of `ops`
/// (and a null sink) sits behind its own queue — the GTS shape — fed
/// [`CHUNK`] elements at a time. Returns `(total run_slice ns, pops,
/// pushes made inside the slices)`.
pub fn queued_slice(ops: Vec<Box<dyn Operator>>, elements: &[Element]) -> (f64, u64, u64) {
    let (mut exec, queues) = executor("bench.queued", ops, true);
    let budget = Budget::unlimited();
    let mut msgs = messages(elements).into_iter();
    let mut total = Duration::ZERO;
    loop {
        let chunk: Vec<Message> = msgs.by_ref().take(CHUNK).collect();
        if chunk.is_empty() {
            break;
        }
        for m in chunk {
            queues[0].push(m).expect("unbounded push");
        }
        let t = Instant::now();
        exec.run_slice(&budget);
        total += t.elapsed();
    }
    assert!(exec.error().is_none(), "queued domain error: {:?}", exec.error());
    let pops = queues.iter().map(|q| q.metrics().dequeued()).sum();
    let pushes = queues[1..].iter().map(|q| q.metrics().enqueued()).sum();
    (total.as_nanos() as f64, pops, pushes)
}

/// The slice machinery's own cost per queue crossing: `run_slice` time
/// minus the queue operations (at `push_pop` ns per push+pop pair) and
/// the operators' own `process` time.
pub fn slice_self_ns(
    make_ops: &dyn Fn() -> Vec<Box<dyn Operator>>,
    elements: &[Element],
    push_pop: f64,
) -> f64 {
    let (stages, _) = stage_costs(&mut make_ops(), elements);
    let ops_ns: f64 = stages.iter().map(|s| s.0).sum();
    let (slice_ns, pops, pushes) = queued_slice(make_ops(), elements);
    let queue_ns = (pops + pushes) as f64 / 2.0 * push_pop;
    (slice_ns - queue_ns - ops_ns) / pops.max(1) as f64
}

/// Egress: `EgressSink::process` of each result into a loopback socket
/// drained by a subscriber thread: ns per result.
pub fn egress_process_ns(results: &[Element]) -> Result<f64, String> {
    let egress = EgressServer::bind("127.0.0.1:0", SlowConsumerPolicy::Block, Obs::disabled())
        .map_err(|e| e.to_string())?;
    let addr = egress.local_addr();
    let reader = thread::spawn(move || -> Result<usize, String> {
        let sub = SubscriberClient::connect(addr, STREAM).map_err(|e| e.to_string())?;
        sub.collect_all().map(|v| v.len()).map_err(|e| e.to_string())
    });
    if !egress.wait_for_subscribers(1, Duration::from_secs(10)) {
        return Err("egress probe subscriber did not connect".into());
    }
    let mut sink = egress.sink("bench.egress");
    let mut out = Output::new();
    let t = Instant::now();
    for e in results {
        sink.process(0, e, &mut out).map_err(|e| e.to_string())?;
    }
    let ns = ns_per(t.elapsed(), results.len());
    sink.flush(&mut out).map_err(|e| e.to_string())?;
    let got = reader.join().map_err(|_| "egress probe reader panicked")??;
    egress.shutdown();
    if got != results.len() {
        return Err(format!("egress probe delivered {got} of {} results", results.len()));
    }
    Ok(ns)
}

/// Wire codec on `Data` frames of `elements`: `(encode ns, decode ns,
/// bytes per frame)`.
pub fn wire_costs(elements: &[Element]) -> (f64, f64, f64) {
    let frames: Vec<Frame> = elements
        .iter()
        .map(|e| Frame::Data { ts: e.ts, tuple: e.tuple.clone(), trace: TraceTag::NONE })
        .collect();
    let n = frames.len();
    let mut buf = Vec::with_capacity(n * 32);
    let t = Instant::now();
    for f in &frames {
        encode_frame(f, &mut buf);
    }
    let encode = ns_per(t.elapsed(), n);
    let t = Instant::now();
    let mut at = 0;
    while at < buf.len() {
        let (frame, used) = decode_frame(&buf[at..]).expect("frame decodes");
        black_box(frame);
        at += used;
    }
    let decode = ns_per(t.elapsed(), n);
    (encode, decode, buf.len() as f64 / n as f64)
}

/// The sharded path by hand: `ShardSplit` → the routed `ShardReplica`
/// (costed aggregate inside) → `OrderedMerge`. Returns per-call ns of
/// split and merge and the total ns per input tuple of all three.
pub fn shard_path(elements: &[Element]) -> (f64, f64, f64) {
    let n = elements.len();
    let mut split = ShardSplit::new(names::split("agg"), Expr::field(0), SHARDS);
    let mut out = Output::new();
    let t = Instant::now();
    for e in elements {
        split.process(0, e, &mut out).expect("split");
    }
    let split_ns = t.elapsed().as_nanos() as f64;
    let routes = out.take_routes();
    let tagged: Vec<Element> = out.drain().collect();

    let mut replicas: Vec<ShardReplica> = (0..SHARDS)
        .map(|i| {
            let inner = Costed::new(keyed_sum(), CostMode::Busy(AGG_COST));
            ShardReplica::new(names::replica("agg", i), Box::new(inner))
        })
        .collect();
    let mut ports = Vec::with_capacity(n);
    let t = Instant::now();
    for (e, &r) in tagged.iter().zip(&routes) {
        let before = out.len();
        replicas[r as usize].process(0, e, &mut out).expect("replica");
        ports.extend(std::iter::repeat_n(r as usize, out.len() - before));
    }
    let replica_ns = t.elapsed().as_nanos() as f64;
    let merge_in: Vec<Element> = out.drain().collect();

    let mut merge = OrderedMerge::new(names::merge("agg"), SHARDS);
    let t = Instant::now();
    for (e, &port) in merge_in.iter().zip(&ports) {
        merge.process(port, e, &mut out).expect("merge");
    }
    let merge_ns = t.elapsed().as_nanos() as f64;
    assert_eq!(out.len(), n, "the merge releases one running sum per input");
    (
        split_ns / n as f64,
        merge_ns / merge_in.len().max(1) as f64,
        (split_ns + replica_ns + merge_ns) / n as f64,
    )
}

fn served_ops(costed: bool) -> Vec<Box<dyn Operator>> {
    let proj = Project::new("proj", vec![0]);
    let cheap = Filter::new("sel_cheap", Expr::field(0).le(Expr::int(CHEAP_MAX)));
    let expensive = Filter::new("sel_expensive", Expr::field(0).le(Expr::int(RESULT_MAX)));
    if !costed {
        return vec![Box::new(proj), Box::new(cheap), Box::new(expensive)];
    }
    let (c_proj, c_cheap, c_exp) = Fig9Params { speedup: SPEEDUP, ..Fig9Params::default() }.costs();
    vec![
        Box::new(Costed::new(proj, CostMode::Busy(c_proj))),
        Box::new(Costed::new(cheap, CostMode::Busy(c_cheap))),
        Box::new(Costed::new(expensive, CostMode::Busy(c_exp))),
    ]
}

fn boxed<O: Operator + 'static>(ops: Vec<O>) -> Vec<Box<dyn Operator>> {
    ops.into_iter().map(|o| Box::new(o) as Box<dyn Operator>).collect()
}

/// The workload's flat-out inputs as elements, and generation ns/tuple.
fn inputs(name: &str, seed: u64) -> (Vec<Element>, Vec<i64>, f64) {
    let to_el = |items: Vec<(Timestamp, Tuple)>| {
        items.into_iter().map(|(ts, t)| Element::new(t, ts)).collect()
    };
    match name {
        "chain_gts" | "chain_di" => {
            let c = chain_inputs(seed, CHAIN_TUPLES);
            (to_el(c.items), c.thresholds, c.gen_ns_per_tuple)
        }
        "shard_agg" => {
            let t = Instant::now();
            let items = shard_inputs(seed, SHARD_TUPLES, Duration::from_micros(1));
            let gen = ns_per(t.elapsed(), items.len());
            (to_el(items), Vec::new(), gen)
        }
        _ => {
            let t = Instant::now();
            let tuples = served_tuples(seed, DRAIN_TUPLES);
            let gen = ns_per(t.elapsed(), tuples.len());
            let items =
                tuples.into_iter().enumerate().map(|(i, t)| (Timestamp::from_micros(i as u64), t));
            (to_el(items.collect()), Vec::new(), gen)
        }
    }
}

/// Counters of the traced engine rounds.
#[derive(Default)]
struct EngineCounters {
    plain_tps: Vec<f64>,
    traced_tps: Vec<f64>,
    run_ns: Vec<f64>,
    crossings: Vec<f64>,
    dispatches: Vec<f64>,
    preemptions: Vec<f64>,
    imbalance: Vec<f64>,
    stall_ms: Vec<f64>,
    high_water: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl EngineCounters {
    fn check(&mut self, r: &RoundStats) {
        self.attempted += r.check.expected;
        self.failed += r.check.failed;
    }

    fn traced(&mut self, r: &RoundStats, obs: &Obs) {
        self.check(r);
        let n = r.tuples as f64;
        self.traced_tps.push(r.throughput());
        self.run_ns.push(r.wall_s * 1e9 / n);
        self.crossings.push(r.report.total_enqueued as f64 / n);
        self.dispatches.push(obs.counter("ts.dispatches").get() as f64 / n * 1e3);
        self.preemptions.push(obs.counter("ts.preemptions").get() as f64);
        let replicas: Vec<f64> = r
            .report
            .stats
            .nodes
            .iter()
            .filter(|s| names::parse_replica(&s.name).is_some())
            .map(|s| s.processed as f64)
            .collect();
        if !replicas.is_empty() {
            let mean = replicas.iter().sum::<f64>() / replicas.len() as f64;
            self.imbalance.push(replicas.iter().copied().fold(0.0, f64::max) / mean);
        }
        if let Some((stall_ns, high_water)) = r.ingest {
            self.stall_ms.push(stall_ns as f64 / 1e6);
            self.high_water.push(high_water as f64);
        }
    }
}

fn med_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// The traced run of workload `name`: engine rounds alternating with and
/// without observability for half of `budget` (for the counters and
/// `trace.overhead_frac`), then the per-layer micro-timings on the
/// workload's own elements, then the ledger.
pub fn traced(
    name: &str,
    seed: u64,
    budget: Duration,
    workers: usize,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let begin = Instant::now();
    let mut m: HashMap<&'static str, f64> = HashMap::new();
    let (elements, thresholds, gen_ns) = spans.scope("workload.generate", |_| inputs(name, seed));
    m.insert("workload.gen_ns_per_tuple", gen_ns);
    let w = spans.scope("workload.reference", |_| Workload::new(name, seed, workers))?;

    let mut c = EngineCounters::default();
    spans.scope("engine.rounds", |spans| -> Result<(), String> {
        while c.traced_tps.len() < 2 || begin.elapsed() < budget / 2 {
            let r = spans.scope("engine.round.untraced", |_| w.round(false, Obs::disabled()))?;
            c.check(&r);
            c.plain_tps.push(r.throughput());
            let obs = Obs::enabled();
            let r = spans.scope("engine.round.traced", |_| w.round(false, obs.clone()))?;
            c.traced(&r, &obs);
        }
        Ok(())
    })?;
    let run_ns = median(&c.run_ns);
    let crossings = median(&c.crossings);
    m.insert("engine.run_ns_per_tuple", run_ns);
    m.insert("streams.queue.crossings_per_tuple", crossings);
    m.insert("scheduler.thread_scheduler.dispatches_per_ktuple", median(&c.dispatches));
    m.insert("scheduler.thread_scheduler.preemptions", median(&c.preemptions));
    m.insert("shard.imbalance", med_or_zero(&c.imbalance));
    m.insert("net.ingest.stall_ms", med_or_zero(&c.stall_ms));
    m.insert("net.ingest.queue_high_water", med_or_zero(&c.high_water));
    m.insert("trace.overhead_frac", 1.0 - median(&c.traced_tps) / median(&c.plain_tps));

    let push_pop = spans.scope("streams.queue.push_pop", |_| median_of(|| push_pop_ns(&elements)));
    let handoff = spans.scope("streams.queue.handoff", |_| median_of(|| handoff_ns(&elements)));
    m.insert("streams.queue.push_pop_ns", push_pop);
    m.insert("streams.queue.handoff_ns", handoff);

    // The input queues of the workload's busiest domain: GTS services one
    // per operator, the merge one per replica, the rest one each.
    let slots = match name {
        "chain_gts" => thresholds.len() + 1,
        "shard_agg" => SHARDS,
        _ => 1,
    };
    let select =
        spans.scope("scheduler.strategy.select", |_| median_of(|| select_ns(slots, &elements)));
    m.insert("scheduler.strategy.select_ns", select);

    let n = elements.len() as f64;
    let attributed = match name {
        "chain_gts" | "chain_di" => {
            let make_ops = || boxed(chain_filters(&thresholds));
            let (stages, survivors) =
                spans.scope("operators.chain", |_| stage_costs(&mut make_ops(), &elements));
            let ops_ns: f64 = stages.iter().map(|s| s.0).sum::<f64>() / n;
            let hops = (stages.iter().map(|s| s.1).sum::<usize>() + survivors.len()) as f64 / n;
            m.insert("operators.filter.process_ns", stages[0].0 / stages[0].1 as f64);
            let di = spans.scope("engine.executor.di_chain", |_| {
                median_of(|| di_chain_ns(make_ops(), &elements))
            });
            m.insert("engine.executor.di_chain_ns", di);
            m.insert("engine.executor.di_hop_self_ns", (di - ops_ns) / hops);
            let slice = spans.scope("engine.executor.slice", |_| {
                median_of(|| slice_self_ns(&make_ops, &elements, push_pop))
            });
            m.insert("engine.executor.slice_self_ns", slice);
            let queues = crossings * (push_pop + slice);
            if name == "chain_gts" {
                queues + ops_ns
            } else {
                queues + di
            }
        }
        "shard_agg" => {
            let mut agg: Vec<Box<dyn Operator>> = vec![Box::new(keyed_sum())];
            let (agg_stage, _) =
                spans.scope("operators.aggregate", |_| stage_costs(&mut agg, &elements));
            m.insert("operators.aggregate.process_ns", agg_stage[0].0 / n);
            let (split, merge, path) = spans.scope("shard.path", |_| shard_path(&elements));
            m.insert("shard.split.process_ns", split);
            m.insert("shard.merge.process_ns", merge);
            let make_ops = || -> Vec<Box<dyn Operator>> { vec![Box::new(keyed_sum())] };
            let slice = spans.scope("engine.executor.slice", |_| {
                median_of(|| slice_self_ns(&make_ops, &elements, push_pop))
            });
            m.insert("engine.executor.slice_self_ns", slice);
            crossings * (handoff + slice) + path
        }
        _ => {
            let (plain, _) =
                spans.scope("operators.plain", |_| stage_costs(&mut served_ops(false), &elements));
            m.insert("operators.project.process_ns", plain[0].0 / plain[0].1 as f64);
            m.insert("operators.filter.process_ns", plain[1].0 / plain[1].1 as f64);
            let (costed, results) =
                spans.scope("operators.costed", |_| stage_costs(&mut served_ops(true), &elements));
            let ops_ns: f64 = costed.iter().map(|s| s.0).sum::<f64>() / n;
            let (encode, decode, bytes) = spans.scope("net.wire", |_| wire_costs(&elements));
            m.insert("net.wire.encode_ns", encode);
            m.insert("net.wire.decode_ns", decode);
            m.insert("net.wire.bytes_per_tuple", bytes);
            let egress = spans.scope("net.egress", |_| egress_process_ns(&results))?;
            m.insert("net.egress.process_ns", egress);
            let make_ops = || served_ops(false);
            let slice = spans.scope("engine.executor.slice", |_| {
                median_of(|| slice_self_ns(&make_ops, &elements, push_pop))
            });
            m.insert("engine.executor.slice_self_ns", slice);
            let results_per_tuple = results.len() as f64 / n;
            // Ingest: decode, then one hand-off through the ingest queue.
            decode + handoff + crossings * (handoff + slice) + ops_ns + results_per_tuple * egress
        }
    };
    m.insert("ledger.attributed_frac", attributed / run_ns);

    // One open-loop round at the nominal rate: the latency tail, reported
    // here unbounded because it does not repeat run to run on a small host.
    let r = spans.scope("engine.round.open_loop", |_| w.round(true, Obs::disabled()))?;
    c.check(&r);
    eprintln!("{}", describe_latency(name, &r));
    let us = |v: &[u64], p| {
        let mut v = v.to_vec();
        v.sort_unstable();
        percentile(&v, p).unwrap_or(0) as f64 / 1e3
    };
    m.insert("e2e.open_loop_p50_us", us(&r.latencies_ns, 50.0));
    m.insert("e2e.open_loop_p99_us", us(&r.latencies_ns, 99.0));
    if !r.lateness_ns.is_empty() {
        m.insert("gen.lateness_p99_us", us(&r.lateness_ns, 99.0));
    }

    let metrics =
        PER_LAYER.iter().map(|&(k, unit)| (k, m.get(k).copied().unwrap_or(0.0), unit)).collect();
    Ok(Outcome { attempted: c.attempted, failed: c.failed, metrics })
}
