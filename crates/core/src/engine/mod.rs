//! The HMTS execution engine.
//!
//! An [`Engine`] owns a decomposed query graph and executes it under an
//! [`ExecutionPlan`] — GTS, OTS, pure DI, or any hybrid in between — and can
//! **switch plans at runtime** (paper §4.2.2: "We can seamlessly switch
//! between these approaches during runtime"): sources are paused at an
//! element boundary, executors are quiesced and drained, in-flight messages
//! and per-operator end-of-stream state are carried into the freshly wired
//! structure, and processing resumes. Queue removal honors the paper's
//! §5.1.3 requirement that remaining elements are processed (they are
//! re-seeded into the merged partition).

pub mod executor;
pub mod source_driver;
pub mod sync;

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use hmts_graph::cost::{CostGraph, CostInputs};
use hmts_graph::graph::{NodeId, QueryGraph};
use hmts_graph::partition::Partitioning;
use hmts_graph::topology::{Payload, Topology};
use hmts_graph::validate::{validate, ValidationError};
use hmts_obs::{GraphModel, ModelNode, ModelShard, Obs, SchedEvent};
use hmts_operators::traits::{EosTracker, Operator, Source, WatermarkTracker};
use hmts_state::{Checkpoint, CheckpointStore};
use hmts_streams::element::Message;
use hmts_streams::error::StreamError;
use hmts_streams::metrics::TimeSeries;
use hmts_streams::queue::StreamQueue;
use hmts_streams::time::{SharedClock, SystemClock};

use crate::chaos::FaultPlan;
use crate::checkpoint::{spawn_coordinator, CheckpointConfig, CheckpointShared, CoordinatorCtx};
use crate::engine::executor::{
    Budget, DomainExecutor, ExecConfig, InputQueue, SlotInit, Target, Waker,
};
use crate::engine::source_driver::{
    spawn_source, SourceDriverConfig, SourceShared, SourceTarget, SourceTrace,
};
use crate::engine::sync::{Notifier, PauseGate, StopFlag};
use crate::plan::{DomainExecution, ExecutionPlan, PlanError};
use crate::scheduler::thread_scheduler::{ThreadScheduler, TsConfig, TsShared};
use crate::stats::{shared_node_stats, SharedNodeStats, StatsSnapshot};
use crate::supervisor::{panic_message, Heartbeat, SupervisionConfig, Supervisor};

/// Bounding policy for the engine's decoupling queues.
#[derive(Debug, Clone, Copy)]
pub struct QueueBound {
    /// Maximum queued messages per queue.
    pub capacity: usize,
    /// What happens when a queue is full. `Block` propagates backpressure
    /// to the producing partition (note: a runtime plan switch closes
    /// queues to unblock stalled producers, so an element mid-push can be
    /// dropped then — lossless switching requires unbounded queues or a
    /// drop-free workload); the `Drop*` policies shed load.
    pub policy: hmts_streams::queue::BackpressurePolicy,
}

/// Engine configuration.
#[derive(Clone)]
pub struct EngineConfig {
    /// Messages an executor pops per scheduling decision.
    pub batch: usize,
    /// Level-3 time slice per dispatch.
    pub slice: Duration,
    /// Aging rate of the level-3 scheduler (priority points per waiting
    /// second; prevents starvation).
    pub aging_rate: f64,
    /// Measure per-operator cost / selectivity / arrival statistics. The
    /// cost is timed on one invocation in 16 per operator (see
    /// [`SlotInit::stats`]); the other statistics count every element.
    pub measure_stats: bool,
    /// Sample total queued elements into a time series at this interval
    /// (the paper's Fig. 9 "memory usage" curve). `None` disables.
    pub memory_sample_interval: Option<Duration>,
    /// Pace sources to their due times (`false` = emit flat out).
    pub pace_sources: bool,
    /// Record a source-timeline point every `n` elements (0 = auto).
    pub timeline_sample_every: u64,
    /// Bound the decoupling queues (default unbounded, as in the paper's
    /// experiments, which *measure* unbounded queue growth).
    pub queue_bound: Option<QueueBound>,
    /// Emit a watermark from every source each time its stream time
    /// advances by this much (sources emit in timestamp order, so the
    /// watermark equals the last emitted element's timestamp). Watermarks
    /// let windowed operators expire state even when one of their inputs
    /// goes quiet. `None` disables.
    pub watermark_interval: Option<Duration>,
    /// Clock override (defaults to a monotonic clock anchored at `start`).
    pub clock: Option<SharedClock>,
    /// Observability handle. [`Obs::disabled`] (the default) keeps every
    /// instrumented hot path to a single branch; [`Obs::enabled`] records
    /// scheduler events, queue/operator metrics, and sampler series.
    pub obs: Obs,
    /// Queue occupancy at which a `stall` event is journaled for that
    /// queue (once per excursion; re-arms once occupancy halves). Only
    /// observed while `obs` is enabled. `0` disables stall detection.
    pub stall_threshold: usize,
    /// Deterministic fault-injection plan (testing). Operators named by
    /// the plan get per-invocation fault checks; all others keep the
    /// single-branch disabled path. `None` disables chaos entirely.
    pub chaos: Option<Arc<FaultPlan>>,
    /// Operator supervision: catch panics, restart with backoff,
    /// quarantine or fail per [`SupervisionConfig`]. `None` means a
    /// panicking operator closes its branch and the run reports
    /// [`EngineError::WorkerPanicked`].
    pub supervision: Option<SupervisionConfig>,
    /// Aligned barrier checkpointing: periodically snapshot every stateful
    /// operator plus per-source replay offsets into
    /// [`CheckpointConfig::dir`], atomically and with last-K retention.
    /// `None` (the default) keeps every hot path checkpoint-free.
    pub checkpoint: Option<CheckpointConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            batch: 32,
            slice: Duration::from_millis(1),
            aging_rate: 10.0,
            measure_stats: true,
            memory_sample_interval: None,
            pace_sources: true,
            timeline_sample_every: 0,
            queue_bound: None,
            watermark_interval: None,
            clock: None,
            obs: Obs::disabled(),
            stall_threshold: 4096,
            chaos: None,
            supervision: None,
            checkpoint: None,
        }
    }
}

/// Errors creating or controlling an engine.
#[derive(Debug)]
pub enum EngineError {
    /// The query graph failed structural validation.
    InvalidGraph(Vec<ValidationError>),
    /// The execution plan does not fit the graph.
    InvalidPlan(Vec<PlanError>),
    /// `start` was called twice.
    AlreadyStarted,
    /// An operation that requires a running engine found none.
    NotStarted,
    /// An operator (or a worker thread) panicked and was not restarted:
    /// either supervision was off, or the policy escalated to
    /// [`DegradeMode::FailQuery`](crate::supervisor::DegradeMode::FailQuery).
    WorkerPanicked {
        /// The operator (or thread) that died.
        operator: String,
        /// The panic payload, rendered as text.
        payload: String,
    },
    /// No usable checkpoint could be loaded during recovery.
    CheckpointLoad {
        /// What went wrong (store/manifest/decode detail).
        detail: String,
    },
    /// A checkpointed operator state could not be restored into the graph.
    CheckpointRestore {
        /// The operator whose state failed to restore.
        operator: String,
        /// What went wrong (missing node, stateless operator, decode
        /// error, version mismatch).
        detail: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidGraph(errs) => {
                write!(f, "invalid query graph: ")?;
                for e in errs {
                    write!(f, "[{e}] ")?;
                }
                Ok(())
            }
            EngineError::InvalidPlan(errs) => {
                write!(f, "invalid execution plan: ")?;
                for e in errs {
                    write!(f, "[{e}] ")?;
                }
                Ok(())
            }
            EngineError::AlreadyStarted => write!(f, "engine already started"),
            EngineError::NotStarted => write!(f, "engine not started"),
            EngineError::WorkerPanicked { operator, payload } => {
                write!(f, "worker panicked in {operator:?}: {payload}")
            }
            EngineError::CheckpointLoad { detail } => {
                write!(f, "checkpoint recovery failed: {detail}")
            }
            EngineError::CheckpointRestore { operator, detail } => {
                write!(f, "restoring checkpointed state of {operator:?} failed: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The result of a completed run.
pub struct EngineReport {
    /// Wall-clock duration from `start` until all processing completed.
    pub elapsed: Duration,
    /// Operator errors observed per domain (elements causing them were
    /// dropped; end-of-stream still propagated).
    pub errors: Vec<(String, StreamError)>,
    /// Final measured statistics per node.
    pub stats: StatsSnapshot,
    /// Sampled total queued elements over time (empty unless
    /// [`EngineConfig::memory_sample_interval`] was set).
    pub memory_series: TimeSeries,
    /// Per-source `(wall time, cumulative emitted)` timelines.
    pub source_timelines: Vec<TimeSeries>,
    /// Peak sampled queue memory (elements).
    pub peak_queue_memory: usize,
    /// Total messages that passed through decoupling queues (the queueing
    /// overhead the DI/VO concept avoids).
    pub total_enqueued: u64,
    /// Panics that terminated an operator or worker thread without a
    /// restart (`(operator-or-thread, payload)`). Non-empty makes
    /// [`Engine::run`] return [`EngineError::WorkerPanicked`].
    pub worker_panics: Vec<(String, String)>,
}

struct CarryState {
    eos: EosTracker,
    wm: WatermarkTracker,
    closed: bool,
}

struct Wiring {
    executors: Vec<Arc<Mutex<DomainExecutor>>>,
    notifiers: Vec<Arc<Notifier>>,
    dedicated: Vec<JoinHandle<()>>,
    ts: Option<ThreadScheduler>,
    stop: Arc<StopFlag>,
    queues: Vec<Arc<StreamQueue>>,
    /// Heartbeat stall monitor (only with supervision + stall timeout).
    stall_monitor: Option<JoinHandle<()>>,
}

/// The HMTS engine.
pub struct Engine {
    topo: Topology,
    plan: ExecutionPlan,
    cfg: EngineConfig,
    clock: SharedClock,
    operators: Vec<Option<Box<dyn Operator>>>,
    sources_payload: Vec<Option<Box<dyn Source>>>,
    carry: Vec<Option<CarryState>>,
    stats: Vec<SharedNodeStats>,
    hint_inputs: CostInputs,
    memory_gauge: Arc<AtomicUsize>,
    memory_series: Arc<Mutex<TimeSeries>>,
    gate: Arc<PauseGate>,
    stop_engine: Arc<StopFlag>,
    source_shared: Vec<Arc<SourceShared>>,
    source_threads: Vec<JoinHandle<()>>,
    monitor: Option<JoinHandle<()>>,
    wiring: Option<Wiring>,
    started_at: Option<Instant>,
    total_enqueued: u64,
    errors: Vec<(String, StreamError)>,
    supervisor: Option<Arc<Supervisor>>,
    worker_panics: Vec<(String, String)>,
    checkpoint_shared: Option<Arc<CheckpointShared>>,
    checkpoint_thread: Option<JoinHandle<()>>,
}

impl Engine {
    /// Creates an engine for `graph` under `plan` with default
    /// configuration.
    pub fn new(graph: QueryGraph, plan: ExecutionPlan) -> Result<Engine, EngineError> {
        Engine::with_config(graph, plan, EngineConfig::default())
    }

    /// Creates an engine with explicit configuration.
    pub fn with_config(
        graph: QueryGraph,
        plan: ExecutionPlan,
        cfg: EngineConfig,
    ) -> Result<Engine, EngineError> {
        let graph_errors = validate(&graph);
        if !graph_errors.is_empty() {
            return Err(EngineError::InvalidGraph(graph_errors));
        }
        // Capture a-priori cost hints before the payloads are moved.
        let mut hint_inputs = CostInputs::default();
        for node in graph.nodes() {
            if let hmts_graph::graph::NodeKind::Operator(op) = &node.kind {
                if let Some(c) = op.cost_hint() {
                    hint_inputs.costs.insert(node.id, c);
                }
                if let Some(s) = op.selectivity_hint() {
                    hint_inputs.selectivities.insert(node.id, s);
                }
            }
        }
        let (topo, payloads) = graph.decompose();
        let plan_errors = plan.validate(&topo);
        if !plan_errors.is_empty() {
            return Err(EngineError::InvalidPlan(plan_errors));
        }
        let n = topo.node_count();
        let mut operators: Vec<Option<Box<dyn Operator>>> = Vec::with_capacity(n);
        let mut sources_payload: Vec<Option<Box<dyn Source>>> = Vec::with_capacity(n);
        for p in payloads {
            match p {
                Payload::Source(s) => {
                    operators.push(None);
                    sources_payload.push(Some(s));
                }
                Payload::Operator(op) => {
                    operators.push(Some(op));
                    sources_payload.push(None);
                }
            }
        }
        let clock = cfg.clock.clone().unwrap_or_else(|| Arc::new(SystemClock::new()));
        let stats = (0..n).map(|_| shared_node_stats()).collect();
        let source_shared =
            topo.sources().into_iter().map(|id| SourceShared::new(id, topo.name(id))).collect();
        let supervisor = cfg.supervision.as_ref().map(|s| {
            let seed = cfg.chaos.as_ref().map(|p| p.seed()).unwrap_or(0x5eed);
            Arc::new(Supervisor::new(s.policy.clone(), seed, cfg.obs.clone()))
        });
        let checkpoint_shared =
            cfg.checkpoint.as_ref().map(|_| CheckpointShared::new(cfg.obs.clone()));
        let engine = Engine {
            carry: (0..n).map(|_| None).collect(),
            topo,
            plan,
            cfg,
            clock,
            operators,
            sources_payload,
            stats,
            hint_inputs,
            memory_gauge: Arc::new(AtomicUsize::new(0)),
            memory_series: Arc::new(Mutex::new(TimeSeries::new("queue_memory"))),
            gate: Arc::new(PauseGate::new()),
            stop_engine: Arc::new(StopFlag::new()),
            source_shared,
            source_threads: Vec::new(),
            monitor: None,
            wiring: None,
            started_at: None,
            total_enqueued: 0,
            errors: Vec::new(),
            supervisor,
            worker_panics: Vec::new(),
            checkpoint_shared,
            checkpoint_thread: None,
        };
        engine.publish_model(&[]);
        Ok(engine)
    }

    /// Rebuilds an engine from the latest complete checkpoint in `dir`.
    ///
    /// The caller supplies the same query graph and a plan (any plan — the
    /// checkpoint is plan-agnostic); every operator blob found in the
    /// checkpoint is restored into the matching stateful operator before
    /// the engine starts, and `cfg.checkpoint` defaults to checkpointing
    /// into `dir` again so the recovered run keeps making progress.
    ///
    /// Returns the engine plus the checkpoint it restored from (`None`
    /// when the directory holds no complete checkpoint yet — a cold
    /// start). The checkpoint carries the per-source ingest offsets
    /// ([`Checkpoint::source_offset`]) that network clients need to
    /// replay from for exactly-once recovery.
    pub fn recover(
        graph: QueryGraph,
        plan: ExecutionPlan,
        mut cfg: EngineConfig,
        dir: impl Into<std::path::PathBuf>,
    ) -> Result<(Engine, Option<Checkpoint>), EngineError> {
        let dir = dir.into();
        if cfg.checkpoint.is_none() {
            cfg.checkpoint = Some(CheckpointConfig::new(&dir));
        }
        let retain = cfg.checkpoint.as_ref().map(|c| c.retain).unwrap_or(3);
        let store = CheckpointStore::new(&dir, retain);
        let ckpt = store
            .load_latest()
            .map_err(|e| EngineError::CheckpointLoad { detail: e.to_string() })?;
        let mut engine = Engine::with_config(graph, plan, cfg)?;
        if let Some(ck) = &ckpt {
            engine.restore_checkpoint(ck)?;
        }
        Ok((engine, ckpt))
    }

    /// Restores every operator blob in `ckpt` into the matching stateful
    /// operator. Must be called before [`Engine::start`].
    pub fn restore_checkpoint(&mut self, ckpt: &Checkpoint) -> Result<(), EngineError> {
        if self.started_at.is_some() {
            return Err(EngineError::AlreadyStarted);
        }
        for (name, blob) in &ckpt.operators {
            let fail = |detail: &str| EngineError::CheckpointRestore {
                operator: name.clone(),
                detail: detail.to_string(),
            };
            let idx = (0..self.topo.node_count())
                .find(|&i| self.topo.name(NodeId(i)) == name)
                .ok_or_else(|| fail("no such operator in graph"))?;
            let op = self.operators[idx].as_mut().ok_or_else(|| fail("node is a source"))?;
            let st = op.stateful().ok_or_else(|| fail("operator is stateless"))?;
            st.restore(blob.clone()).map_err(|e| fail(&e.to_string()))?;
        }
        // Seed each source's emitted counter from its checkpointed offset
        // so offsets acked into post-recovery checkpoints stay global
        // (consistent with client sequence numbers), not process-local.
        for (name, offset) in &ckpt.sources {
            let src = self.source_shared.iter().find(|s| s.name() == name).ok_or_else(|| {
                EngineError::CheckpointRestore {
                    operator: name.clone(),
                    detail: "no such source in graph".to_string(),
                }
            })?;
            src.resume_from(*offset);
        }
        // Seed the in-memory latest-blob cache so a supervisor restart
        // before the first post-recovery checkpoint still restores state.
        if let Some(ck) = &self.checkpoint_shared {
            ck.install_latest(ckpt.id, &ckpt.operators);
        }
        Ok(())
    }

    /// Builds, starts, and waits — the one-call convenience for experiments.
    pub fn run(graph: QueryGraph, plan: ExecutionPlan) -> Result<EngineReport, EngineError> {
        Engine::run_with_config(graph, plan, EngineConfig::default())
    }

    /// [`Engine::run`] with explicit configuration.
    pub fn run_with_config(
        graph: QueryGraph,
        plan: ExecutionPlan,
        cfg: EngineConfig,
    ) -> Result<EngineReport, EngineError> {
        let mut engine = Engine::with_config(graph, plan, cfg)?;
        engine.start()?;
        let report = engine.wait();
        if let Some((operator, payload)) = report.worker_panics.first() {
            return Err(EngineError::WorkerPanicked {
                operator: operator.clone(),
                payload: payload.clone(),
            });
        }
        Ok(report)
    }

    /// The structural view of the graph (useful for building plans).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The engine's clock (anchored at construction for the default).
    pub fn clock(&self) -> SharedClock {
        Arc::clone(&self.clock)
    }

    /// The gauge of total queued data elements across all queues.
    pub fn memory_gauge(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.memory_gauge)
    }

    /// The currently active plan.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// The engine's observability handle (disabled unless one was passed
    /// in [`EngineConfig::obs`]).
    pub fn obs(&self) -> &Obs {
        &self.cfg.obs
    }

    /// A snapshot of the measured per-node statistics.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::collect(&self.topo, &self.stats)
    }

    /// Per-source emission timelines (so far).
    pub fn source_timelines(&self) -> Vec<TimeSeries> {
        self.source_shared.iter().map(|s| s.timeline()).collect()
    }

    /// The cost model the engine currently believes: a-priori hints
    /// overridden by everything measured so far. This is the input the
    /// queue-placement algorithms and the Chain strategy consume.
    pub fn cost_graph(&self) -> CostGraph {
        let inputs = self.current_cost_inputs();
        cost_graph_from_topology(&self.topo, &inputs)
    }

    fn current_cost_inputs(&self) -> CostInputs {
        let mut inputs = self.hint_inputs.clone();
        let measured = self.stats_snapshot().to_cost_inputs(&self.topo);
        inputs.source_rates.extend(measured.source_rates);
        inputs.costs.extend(measured.costs);
        inputs.selectivities.extend(measured.selectivities);
        inputs
    }

    /// Starts execution: wires the plan, spawns source / domain / monitor
    /// threads.
    pub fn start(&mut self) -> Result<(), EngineError> {
        if self.started_at.is_some() {
            return Err(EngineError::AlreadyStarted);
        }
        self.started_at = Some(Instant::now());
        self.build_wiring(Vec::new());
        // Spawn sources last: targets are in place.
        let sources = self.topo.sources();
        for (i, id) in sources.into_iter().enumerate() {
            let payload = self.sources_payload[id.0].take().expect("source payload present");
            let stats = self.cfg.measure_stats.then(|| Arc::clone(&self.stats[id.0]));
            let h = spawn_source(
                payload,
                Arc::clone(&self.source_shared[i]),
                Arc::clone(&self.clock),
                Arc::clone(&self.gate),
                Arc::clone(&self.stop_engine),
                stats,
                SourceDriverConfig {
                    pace: self.cfg.pace_sources,
                    sample_every: self.cfg.timeline_sample_every,
                    watermark_interval: self.cfg.watermark_interval,
                    trace: self
                        .cfg
                        .obs
                        .tracer()
                        .map(|t| SourceTrace { tracer: t, source: id.0 as u32 }),
                    watermark_lag: (self.cfg.obs.is_enabled()
                        && self.cfg.watermark_interval.is_some())
                    .then(|| {
                        self.cfg
                            .obs
                            .gauge(&format!("source.{}.watermark_lag_ms", self.topo.name(id)))
                    }),
                    checkpoint: self.checkpoint_shared.clone(),
                },
            );
            self.source_threads.push(h);
        }
        if let (Some(ckcfg), Some(shared)) = (&self.cfg.checkpoint, &self.checkpoint_shared) {
            let ctx = CoordinatorCtx {
                shared: Arc::clone(shared),
                store: CheckpointStore::new(&ckcfg.dir, ckcfg.retain),
                interval: ckcfg.interval,
                align_timeout: ckcfg.align_timeout,
                stop: Arc::clone(&self.stop_engine),
                obs: self.cfg.obs.clone(),
                sources: self.source_shared.clone(),
                fault: self.cfg.chaos.as_ref().and_then(|p| p.checkpoint_fault()),
            };
            self.checkpoint_thread = Some(spawn_coordinator(ctx));
        }
        if let Some(interval) = self.cfg.memory_sample_interval {
            let gauge = Arc::clone(&self.memory_gauge);
            let series = Arc::clone(&self.memory_series);
            let clock = Arc::clone(&self.clock);
            let stop = Arc::clone(&self.stop_engine);
            self.monitor = Some(
                std::thread::Builder::new()
                    .name("hmts-monitor".into())
                    .spawn(move || {
                        while !stop.is_stopped() {
                            std::thread::sleep(interval);
                            series.lock().record(clock.now(), gauge.load(Ordering::Relaxed) as f64);
                        }
                    })
                    .expect("spawn monitor"),
            );
        }
        Ok(())
    }

    /// Switches the running engine to a new plan: pauses sources, quiesces
    /// and drains the current wiring, re-wires, re-seeds in-flight messages,
    /// and resumes. This is the paper's runtime GTS ⇄ OTS ⇄ HMTS switch.
    pub fn switch_plan(&mut self, plan: ExecutionPlan) -> Result<(), EngineError> {
        if self.started_at.is_none() {
            return Err(EngineError::NotStarted);
        }
        let plan_errors = plan.validate(&self.topo);
        if !plan_errors.is_empty() {
            return Err(EngineError::InvalidPlan(plan_errors));
        }
        // Journal the switch before teardown so it causally precedes the
        // queue-drain records of the outgoing wiring.
        self.cfg.obs.emit_with(|| SchedEvent::ModeSwitch {
            from: describe_plan(&self.plan),
            to: describe_plan(&plan),
        });
        self.cfg.obs.counter("engine.plan_switches").inc();
        self.gate.pause_and_wait();
        let seeds = self.teardown_wiring();
        self.plan = plan;
        self.build_wiring(seeds);
        self.gate.resume();
        Ok(())
    }

    /// Stops and joins the current wiring, returning all in-flight messages
    /// and stashing operator payloads and control state back into the
    /// engine.
    fn teardown_wiring(&mut self) -> Vec<(NodeId, usize, Message)> {
        let Some(wiring) = self.wiring.take() else {
            return Vec::new();
        };
        wiring.stop.stop();
        // Lift capacity bounds first: a producer stalled in a bounded Block
        // push proceeds into the (now unbounded) buffer, so its in-flight
        // element is preserved and drained as a remnant below.
        for q in &wiring.queues {
            q.lift_bound();
        }
        for n in &wiring.notifiers {
            n.notify();
        }
        for h in wiring.dedicated {
            self.harvest_join(h);
        }
        if let Some(ts) = wiring.ts {
            // Workers observe the stop flag via their timed waits.
            let panicked = ts.join();
            self.worker_panics.extend(panicked);
        }
        if let Some(m) = wiring.stall_monitor {
            self.harvest_join(m);
        }
        // Flush a final sample (queue counters advance by delta inside
        // collectors), journal what each queue still holds, then drop the
        // collectors that capture this wiring's queues and stats.
        self.cfg.obs.sample_now();
        for q in &wiring.queues {
            let remaining = q.len();
            self.cfg.obs.emit_with(|| SchedEvent::QueueDrain {
                queue: q.name().to_string(),
                drained: remaining,
            });
        }
        self.cfg.obs.clear_collectors();
        let mut seeds = Vec::new();
        for exec in &wiring.executors {
            let mut e = exec.lock();
            if let Some(err) = e.error() {
                self.errors.push((e.name().to_string(), err.clone()));
            }
            self.worker_panics.extend(e.take_panics());
            seeds.extend(e.take_input_remnants());
            for state in e.extract() {
                self.operators[state.node.0] = Some(state.op);
                self.carry[state.node.0] =
                    Some(CarryState { eos: state.eos, wm: state.wm, closed: state.closed });
            }
        }
        for q in &wiring.queues {
            self.total_enqueued += q.metrics().enqueued();
        }
        seeds
    }

    /// Wires the current plan into executors, queues, and threads, seeding
    /// in-flight messages carried over from the previous wiring.
    fn build_wiring(&mut self, seeds: Vec<(NodeId, usize, Message)>) {
        let stop = Arc::new(StopFlag::new());
        let cost_graph = self.cost_graph();
        let stall_timeout = self
            .supervisor
            .as_ref()
            .and(self.cfg.supervision.as_ref())
            .and_then(|s| s.stall_timeout);
        let mut heartbeats: Vec<(String, Arc<Heartbeat>)> = Vec::new();

        // node -> domain.
        let mut node_domain: HashMap<NodeId, usize> = HashMap::new();
        for (d, _) in self.plan.domains.iter().enumerate() {
            for n in self.plan.domain_nodes(d) {
                node_domain.insert(n, d);
            }
        }
        let part_of = self.plan.partitioning.group_index();

        let notifiers: Vec<Arc<Notifier>> =
            (0..self.plan.domains.len()).map(|_| Arc::new(Notifier::new())).collect();

        // Level 3 shared state (created before executors so queue targets
        // can hold TS wakers).
        let pooled: Vec<usize> = self
            .plan
            .domains
            .iter()
            .enumerate()
            .filter(|(_, d)| d.execution == DomainExecution::Pooled)
            .map(|(i, _)| i)
            .collect();
        let pooled_index: HashMap<usize, usize> =
            pooled.iter().enumerate().map(|(pi, &d)| (d, pi)).collect();
        let ts_shared: Option<Arc<TsShared>> = (!pooled.is_empty()).then(|| {
            let ts = TsShared::create_with_obs(
                pooled.len(),
                TsConfig {
                    workers: self.plan.workers.max(1),
                    slice: self.cfg.slice,
                    aging_rate: self.cfg.aging_rate,
                },
                self.cfg.obs.clone(),
            );
            for (pi, &d) in pooled.iter().enumerate() {
                ts.set_priority(pi, self.plan.domains[d].priority as i64);
            }
            ts
        });

        let waker_for = |d: usize| -> Option<Arc<dyn Waker>> {
            match self.plan.domains[d].execution {
                DomainExecution::Dedicated => Some(Arc::clone(&notifiers[d]) as Arc<dyn Waker>),
                DomainExecution::Pooled => ts_shared.as_ref().map(|ts| ts.waker(pooled_index[&d])),
                DomainExecution::SourceDriven => None,
            }
        };

        // One queue per decoupled edge.
        let mut queue_for: Vec<Option<Arc<StreamQueue>>> = Vec::new();
        let mut queues = Vec::new();
        for e in self.topo.edges() {
            let consumer_domain = node_domain[&e.to];
            let decoupled = if self.topo.is_source(e.from) {
                self.plan.domains[consumer_domain].execution != DomainExecution::SourceDriven
            } else {
                part_of.get(&e.from) != part_of.get(&e.to)
            };
            if decoupled {
                let name = format!("{}->{}", self.topo.name(e.from), self.topo.name(e.to));
                // A Block-bounded queue whose producer and consumer live in
                // the same domain would deadlock the executor against
                // itself (it is the only thread that could drain the queue
                // it is blocked on), so such queues stay unbounded; the
                // drop policies are safe everywhere.
                let same_domain = !self.topo.is_source(e.from)
                    && node_domain.get(&e.from) == node_domain.get(&e.to);
                let q = match self.cfg.queue_bound {
                    Some(b)
                        if !(same_domain
                            && b.policy == hmts_streams::queue::BackpressurePolicy::Block) =>
                    {
                        StreamQueue::bounded_with_gauge(
                            name,
                            b.capacity,
                            b.policy,
                            Arc::clone(&self.memory_gauge),
                        )
                    }
                    _ => StreamQueue::unbounded_with_gauge(name, Arc::clone(&self.memory_gauge)),
                };
                queues.push(Arc::clone(&q));
                queue_for.push(Some(q));
            } else {
                queue_for.push(None);
            }
        }

        // Executors per domain.
        let mut executors: Vec<Arc<Mutex<DomainExecutor>>> = Vec::new();
        let mut total_live = 0usize;
        for (d, spec) in self.plan.domains.iter().enumerate() {
            let nodes = self.plan.domain_nodes(d);
            let mut slots = Vec::with_capacity(nodes.len());
            let mut inputs = Vec::new();
            for &n in &nodes {
                let op = self.operators[n.0].take().expect("operator payload present");
                let carried = self.carry[n.0].take();
                let arity = self.topo.input_arity(n);
                let (eos, wm, closed) = match carried {
                    Some(c) => (c.eos, c.wm, c.closed),
                    None => (EosTracker::new(arity), WatermarkTracker::new(arity), false),
                };
                let mut targets = Vec::new();
                for (ei, e) in self.topo.edges().iter().enumerate() {
                    if e.from != n {
                        continue;
                    }
                    match &queue_for[ei] {
                        Some(q) => targets.push(Target::Queue {
                            queue: Arc::clone(q),
                            wake: waker_for(node_domain[&e.to]),
                        }),
                        None => targets.push(Target::Inline { node: e.to, port: e.to_port }),
                    }
                }
                // Input queues feeding this node (from sources or other
                // partitions). A port whose EOS was already consumed before
                // a switch starts exhausted: its producer will never send
                // another message on the new queue.
                for (ei, e) in self.topo.edges().iter().enumerate() {
                    if e.to != n {
                        continue;
                    }
                    if let Some(q) = &queue_for[ei] {
                        inputs.push(InputQueue {
                            queue: Arc::clone(q),
                            node: n,
                            port: e.to_port,
                            exhausted: closed || !eos.is_open(e.to_port),
                        });
                    }
                }
                slots.push(SlotInit {
                    node: n,
                    op,
                    eos,
                    wm,
                    closed,
                    targets,
                    stats: self.cfg.measure_stats.then(|| Arc::clone(&self.stats[n.0])),
                    latency: self
                        .cfg
                        .obs
                        .maybe_histogram(&format!("op.{}.latency_ns", self.topo.name(n))),
                    chaos: self
                        .cfg
                        .chaos
                        .as_ref()
                        .and_then(|p| p.operator_state(self.topo.name(n))),
                });
            }
            let strategy = spec.strategy.build(Some(&cost_graph));
            let mut exec = DomainExecutor::new(
                spec.name.clone(),
                slots,
                inputs,
                strategy,
                ExecConfig { batch: self.cfg.batch },
            );
            if let Some(tracer) = self.cfg.obs.tracer() {
                exec.set_tracer(tracer, d as u32);
            }
            if let Some(sup) = &self.supervisor {
                exec.set_supervisor(Arc::clone(sup));
            }
            if let Some(ck) = &self.checkpoint_shared {
                total_live += exec.live_slots();
                exec.set_checkpoint(Arc::clone(ck));
            }
            if stall_timeout.is_some() {
                let hb = Arc::new(Heartbeat::new());
                heartbeats.push((spec.name.clone(), Arc::clone(&hb)));
                exec.set_heartbeat(hb);
            }
            executors.push(Arc::new(Mutex::new(exec)));
        }
        // Refresh the alignment quorum: the coordinator needs to know how
        // many live (non-closed) operator slots must ack each barrier. Reset
        // on every re-wiring so plan switches keep the count honest.
        if let Some(ck) = &self.checkpoint_shared {
            ck.live_slots().store(total_live, Ordering::Release);
        }

        // Seed in-flight messages into the domains that now own their
        // destination operators.
        for (node, port, msg) in seeds {
            if let Some(&d) = node_domain.get(&node) {
                executors[d].lock().seed(node, port, msg);
            }
        }

        // Source targets.
        let source_ids = self.topo.sources();
        for (si, &s) in source_ids.iter().enumerate() {
            let mut targets = Vec::new();
            for (ei, e) in self.topo.edges().iter().enumerate() {
                if e.from != s {
                    continue;
                }
                let d = node_domain[&e.to];
                match &queue_for[ei] {
                    Some(q) => targets.push(SourceTarget::Queue {
                        queue: Arc::clone(q),
                        wake: waker_for(d),
                        port: e.to_port,
                    }),
                    None => targets.push(SourceTarget::Direct {
                        exec: Arc::clone(&executors[d]),
                        node: e.to,
                        port: e.to_port,
                    }),
                }
            }
            self.source_shared[si].set_targets(targets);
        }

        // Threads: dedicated domains get one each; pooled domains share the
        // level-3 worker pool.
        let mut dedicated = Vec::new();
        for (d, spec) in self.plan.domains.iter().enumerate() {
            if spec.execution != DomainExecution::Dedicated {
                continue;
            }
            let exec = Arc::clone(&executors[d]);
            let notifier = Arc::clone(&notifiers[d]);
            let stop = Arc::clone(&stop);
            dedicated.push(
                std::thread::Builder::new()
                    .name(format!("hmts-{}", spec.name))
                    .spawn(move || dedicated_loop(&exec, &notifier, &stop))
                    .expect("spawn dedicated domain thread"),
            );
        }
        let ts = ts_shared.map(|shared| {
            let pool_execs = pooled.iter().map(|&d| Arc::clone(&executors[d])).collect();
            ThreadScheduler::spawn(shared, pool_execs, Arc::clone(&stop))
        });

        // A stall monitor watching every domain's heartbeat: if a domain sits
        // inside `inject` past the configured timeout, the supervisor records
        // a heartbeat-stall (journal event + counter) once per excursion.
        let stall_monitor = match (stall_timeout, &self.supervisor) {
            (Some(timeout), Some(sup)) if !heartbeats.is_empty() => {
                let sup = Arc::clone(sup);
                let stop = Arc::clone(&stop);
                let poll = (timeout / 4).max(Duration::from_millis(1));
                Some(
                    std::thread::Builder::new()
                        .name("hmts-stall-monitor".into())
                        .spawn(move || {
                            while !stop.is_stopped() {
                                for (name, hb) in &heartbeats {
                                    if let Some(stuck) = hb.stalled_for(timeout) {
                                        sup.on_stall(name, stuck);
                                    }
                                }
                                std::thread::sleep(poll);
                            }
                        })
                        .expect("spawn stall monitor thread"),
                )
            }
            _ => None,
        };

        self.register_collectors(&queues);
        self.publish_model(&queue_for);
        self.wiring =
            Some(Wiring { executors, notifiers, dedicated, ts, stop, queues, stall_monitor });
    }

    /// Registers sampler collectors for the freshly built wiring: per-queue
    /// occupancy/high-water gauges and enqueue/dequeue/drop counters (the
    /// counters advance by delta so they accumulate across re-wirings under
    /// the same metric names), per-node `c(v)` / `d(v)` / selectivity
    /// gauges, and the engine-wide queued-element gauge. Collectors are
    /// dropped again in `teardown_wiring`.
    fn register_collectors(&self, queues: &[Arc<StreamQueue>]) {
        let obs = &self.cfg.obs;
        if !obs.is_enabled() {
            return;
        }
        obs.gauge("engine.domains").set(self.plan.domains.len() as i64);
        obs.gauge("engine.queues").set(queues.len() as i64);
        {
            let gauge = obs.gauge("engine.queued_elements");
            let mem = Arc::clone(&self.memory_gauge);
            obs.add_collector(move || gauge.set(mem.load(Ordering::Relaxed) as i64));
        }
        for q in queues {
            let base = format!("queue.{}", q.name());
            let occupancy = obs.gauge(&format!("{base}.occupancy"));
            let high_water = obs.gauge(&format!("{base}.high_water"));
            let enqueued = obs.counter(&format!("{base}.enqueued"));
            let dequeued = obs.counter(&format!("{base}.dequeued"));
            let dropped = obs.counter(&format!("{base}.dropped"));
            let last = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
            let stalled = AtomicBool::new(false);
            let threshold = self.stall_threshold_effective();
            let q = Arc::clone(q);
            let obs2 = obs.clone();
            obs.add_collector(move || {
                let len = q.len();
                occupancy.set(len as i64);
                let m = q.metrics();
                high_water.set_max(m.high_water() as i64);
                let (e, d, r) = (m.enqueued(), m.dequeued(), m.dropped());
                enqueued.add(e - last.0.swap(e, Ordering::Relaxed));
                dequeued.add(d - last.1.swap(d, Ordering::Relaxed));
                dropped.add(r - last.2.swap(r, Ordering::Relaxed));
                if threshold > 0 && len >= threshold {
                    if !stalled.swap(true, Ordering::Relaxed) {
                        obs2.emit_with(|| SchedEvent::StallDetected {
                            queue: q.name().to_string(),
                            occupancy: len,
                        });
                    }
                } else if len < threshold / 2 {
                    stalled.store(false, Ordering::Relaxed);
                }
            });
        }
        if self.cfg.measure_stats {
            let mut nodes = Vec::new();
            let mut sources = Vec::new();
            for i in 0..self.topo.node_count() {
                let id = NodeId(i);
                let name = self.topo.name(id);
                if self.topo.is_source(id) {
                    // Sources only emit; the driver feeds their arrival
                    // estimator at emission time, so the measured rate is
                    // the live ingest rate the capacity analyzer scales
                    // everything from.
                    sources.push((
                        Arc::clone(&self.stats[i]),
                        obs.gauge(&format!("source.{name}.rate")),
                    ));
                    continue;
                }
                nodes.push((
                    Arc::clone(&self.stats[i]),
                    obs.gauge(&format!("node.{name}.cost_ns")),
                    obs.gauge(&format!("node.{name}.selectivity_ppm")),
                    obs.gauge(&format!("node.{name}.rate")),
                    obs.gauge(&format!("node.{name}.processed")),
                ));
            }
            obs.add_collector(move || {
                for (stats, cost, sel, rate, processed) in &nodes {
                    let s = stats.read();
                    if let Some(c) = s.cost {
                        cost.set(c.as_nanos().min(i64::MAX as u128) as i64);
                    }
                    if let Some(x) = s.selectivity {
                        sel.set((x * 1e6) as i64);
                    }
                    if let Some(r) = s.rate {
                        rate.set(r as i64);
                    }
                    processed.set(s.processed as i64);
                }
                for (stats, rate) in &sources {
                    if let Some(r) = stats.read().rate {
                        rate.set(r as i64);
                    }
                }
            });
        }
    }

    /// Registers the engine's [`GraphModel`] provider on the obs handle
    /// (no-op when disabled). The shape — topological order, partitions of
    /// the current plan, shard groups — is fixed here; each call reads the
    /// stats cells and the entry queues in `queue_for` (one slot per edge,
    /// empty before the first wiring). Called at construction and by every
    /// re-wiring, so the model always describes the running plan.
    fn publish_model(&self, queue_for: &[Option<Arc<StreamQueue>>]) {
        if !self.cfg.obs.is_enabled() {
            return;
        }
        let order = cost_graph_from_topology(&self.topo, &self.hint_inputs)
            .topological_order()
            .expect("validated query graphs are acyclic");
        let mut index = vec![0; order.len()];
        for (k, &v) in order.iter().enumerate() {
            index[v] = k;
        }
        let part_of = self.plan.partitioning.group_index();
        // Queues are held weakly: the provider outlives the wiring and must
        // not keep a torn-down wiring's queues (and what they hold) alive.
        let (shape, cells): (Vec<ModelNode>, Vec<_>) = order
            .iter()
            .map(|&v| {
                let id = NodeId(v);
                let node = ModelNode {
                    name: self.topo.name(id).to_string(),
                    preds: self.topo.in_edges(id).map(|e| index[e.from.0]).collect(),
                    source: self.topo.is_source(id),
                    partition: part_of.get(&id).copied(),
                    ..ModelNode::default()
                };
                let queues: Vec<Weak<StreamQueue>> = (self.topo.edges().iter().zip(queue_for))
                    .filter(|(e, _)| e.to == id)
                    .filter_map(|(_, q)| q.as_ref().map(Arc::downgrade))
                    .collect();
                (node, (Arc::clone(&self.stats[v]), queues))
            })
            .unzip();
        let shards: Vec<ModelShard> = self
            .topo
            .shard_groups()
            .iter()
            .map(|g| ModelShard {
                logical: g.logical.clone(),
                splitter: index[g.split.0],
                replicas: g.replicas.iter().map(|r| index[r.0]).collect(),
            })
            .collect();
        self.cfg.obs.set_graph_model(move || {
            let mut nodes = shape.clone();
            for (node, (stats, queues)) in nodes.iter_mut().zip(&cells) {
                let s = stats.read();
                node.cost_ns = s.cost.map(|c| c.as_nanos() as f64);
                node.selectivity = s.selectivity;
                node.rate = s.rate;
                node.queue_depth = (!queues.is_empty())
                    .then(|| queues.iter().filter_map(Weak::upgrade).map(|q| q.len() as f64).sum());
            }
            GraphModel { nodes, shards: shards.clone() }
        });
    }

    fn stall_threshold_effective(&self) -> usize {
        // A bounded queue can never reach a threshold beyond its capacity;
        // clamp so stalls are still observable near saturation.
        match self.cfg.queue_bound {
            Some(b) => self.cfg.stall_threshold.min(b.capacity),
            None => self.cfg.stall_threshold,
        }
    }

    /// Inserts a decoupling queue on the edge `from → to` of a running
    /// engine (paper §5.1.3: "a queue can be immediately inserted"): the
    /// virtual operator containing both endpoints is split along that edge
    /// and the engine re-plans. Returns `false` (without re-planning) when
    /// the edge already crosses a VO boundary. The re-planned graph runs as
    /// pooled HMTS with the current worker count (minimum 2) and the first
    /// domain's strategy.
    pub fn insert_queue(&mut self, from: NodeId, to: NodeId) -> Result<bool, EngineError> {
        let part = &self.plan.partitioning;
        let (Some(gf), Some(gt)) = (part.group_of(from), part.group_of(to)) else {
            return Ok(false);
        };
        if gf != gt {
            return Ok(false); // already decoupled
        }
        // Split group `gf` into the weakly connected components of its
        // nodes with the edge (from, to) removed.
        let group: Vec<NodeId> = part.groups()[gf].clone();
        let set: std::collections::HashSet<NodeId> = group.iter().copied().collect();
        let mut comp: HashMap<NodeId, usize> = HashMap::new();
        let mut next = 0usize;
        for &start in &group {
            if comp.contains_key(&start) {
                continue;
            }
            let c = next;
            next += 1;
            let mut stack = vec![start];
            comp.insert(start, c);
            while let Some(v) = stack.pop() {
                for e in self.topo.edges() {
                    if e.from == from && e.to == to {
                        continue; // the cut edge
                    }
                    let neighbour = if e.from == v {
                        e.to
                    } else if e.to == v {
                        e.from
                    } else {
                        continue;
                    };
                    if set.contains(&neighbour) && !comp.contains_key(&neighbour) {
                        comp.insert(neighbour, c);
                        stack.push(neighbour);
                    }
                }
            }
        }
        if next < 2 {
            // The endpoints stay connected through another path: a queue on
            // this edge alone cannot split the VO (paper §3.4: push-based
            // VOs may contain shared subqueries).
            return Ok(false);
        }
        let mut groups: Vec<Vec<NodeId>> = vec![Vec::new(); next];
        for &v in &group {
            groups[comp[&v]].push(v);
        }
        self.cfg.obs.emit_with(|| SchedEvent::QueueInsert {
            queue: format!("{}->{}", self.topo.name(from), self.topo.name(to)),
        });
        let mut new_groups: Vec<Vec<NodeId>> = self
            .plan
            .partitioning
            .groups()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != gf)
            .map(|(_, g)| g.clone())
            .collect();
        new_groups.extend(groups);
        self.replan(Partitioning::new(new_groups))?;
        Ok(true)
    }

    /// Removes the decoupling queue on the edge `from → to` of a running
    /// engine by merging the two virtual operators it separates; the
    /// queue's remaining elements are drained and re-processed by the
    /// merged VO (paper §5.1.3: "to remove a queue all remaining elements
    /// in the queue must be entirely processed"). Returns `false` when the
    /// endpoints already share a VO.
    pub fn remove_queue(&mut self, from: NodeId, to: NodeId) -> Result<bool, EngineError> {
        let part = &self.plan.partitioning;
        let (Some(gf), Some(gt)) = (part.group_of(from), part.group_of(to)) else {
            return Ok(false);
        };
        if gf == gt {
            return Ok(false);
        }
        let mut new_groups: Vec<Vec<NodeId>> = Vec::new();
        let mut merged: Vec<NodeId> = Vec::new();
        for (i, g) in part.groups().iter().enumerate() {
            if i == gf || i == gt {
                merged.extend(g.iter().copied());
            } else {
                new_groups.push(g.clone());
            }
        }
        new_groups.push(merged);
        self.cfg.obs.emit_with(|| SchedEvent::QueueRemove {
            queue: format!("{}->{}", self.topo.name(from), self.topo.name(to)),
        });
        self.replan(Partitioning::new(new_groups))?;
        Ok(true)
    }

    fn replan(&mut self, partitioning: Partitioning) -> Result<(), EngineError> {
        let strategy = self.plan.domains.first().map(|d| d.strategy).unwrap_or_default();
        let workers = self.plan.workers.max(2);
        self.switch_plan(ExecutionPlan::hmts(partitioning, strategy, workers))
    }

    /// Whether all sources have finished and every domain completed.
    pub fn is_complete(&self) -> bool {
        self.source_shared.iter().all(|s| s.is_done())
            && self
                .wiring
                .as_ref()
                .is_some_and(|w| w.executors.iter().all(|e| e.lock().is_finished()))
    }

    /// Adjusts a pooled domain's level-3 priority at runtime.
    pub fn set_domain_priority(&mut self, domain: usize, priority: i32) {
        if domain < self.plan.domains.len() {
            self.plan.domains[domain].priority = priority;
        }
        if let Some(w) = &self.wiring {
            if let Some(ts) = &w.ts {
                // Map the domain index to its pooled index.
                let pooled: Vec<usize> = self
                    .plan
                    .domains
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| d.execution == DomainExecution::Pooled)
                    .map(|(i, _)| i)
                    .collect();
                if let Some(pi) = pooled.iter().position(|&d| d == domain) {
                    ts.shared().set_priority(pi, priority as i64);
                }
            }
        }
    }

    /// Blocks until all processing completes, then returns the run report.
    pub fn wait(mut self) -> EngineReport {
        for h in std::mem::take(&mut self.source_threads) {
            self.harvest_join(h);
        }
        if let Some(wiring) = self.wiring.take() {
            for h in wiring.dedicated {
                self.harvest_join(h);
            }
            if let Some(ts) = wiring.ts {
                let panicked = ts.join();
                self.worker_panics.extend(panicked);
            }
            // The stall monitor only exits on the stop flag; set it now that
            // every processing thread has finished.
            wiring.stop.stop();
            if let Some(m) = wiring.stall_monitor {
                self.harvest_join(m);
            }
            for exec in &wiring.executors {
                let mut e = exec.lock();
                if let Some(err) = e.error() {
                    self.errors.push((e.name().to_string(), err.clone()));
                }
                self.worker_panics.extend(e.take_panics());
            }
            for q in &wiring.queues {
                self.total_enqueued += q.metrics().enqueued();
            }
            // Final flush so queue counters and gauges reflect the finished
            // run in any snapshot exported after `wait`.
            self.cfg.obs.sample_now();
            self.cfg.obs.clear_collectors();
        }
        let elapsed = self.started_at.map(|t| t.elapsed()).unwrap_or_default();
        self.stop_engine.stop();
        if let Some(m) = self.monitor.take() {
            let _ = m.join();
        }
        if let Some(h) = self.checkpoint_thread.take() {
            let _ = h.join();
        }
        let memory_series = self.memory_series.lock().clone();
        EngineReport {
            elapsed,
            errors: std::mem::take(&mut self.errors),
            stats: self.stats_snapshot(),
            peak_queue_memory: memory_series.max().unwrap_or(0.0) as usize,
            memory_series,
            source_timelines: self.source_timelines(),
            total_enqueued: self.total_enqueued,
            worker_panics: std::mem::take(&mut self.worker_panics),
        }
    }

    /// Joins a thread handle, converting a panic payload into a recorded
    /// worker panic instead of silently dropping (or propagating) it.
    fn harvest_join(&mut self, h: JoinHandle<()>) {
        let name = h.thread().name().unwrap_or("worker").to_string();
        if let Err(payload) = h.join() {
            self.worker_panics.push((name, panic_message(payload.as_ref())));
        }
    }

    /// Aborts processing: stops sources and executors without waiting for
    /// stream completion, then returns the report of what happened so far.
    pub fn abort(self) -> EngineReport {
        self.stop_engine.stop();
        if let Some(w) = &self.wiring {
            w.stop.stop();
            for n in &w.notifiers {
                n.notify();
            }
        }
        // Unpause if paused, so source threads can observe the stop.
        self.gate.resume();
        self.wait()
    }
}

fn dedicated_loop(
    exec: &Arc<Mutex<DomainExecutor>>,
    notifier: &Arc<Notifier>,
    stop: &Arc<StopFlag>,
) {
    let budget = Budget { stop: Some(Arc::clone(stop)), ..Budget::default() };
    loop {
        let outcome = exec.lock().run_slice(&budget);
        if stop.is_stopped() {
            return;
        }
        match outcome {
            executor::RunOutcome::Finished => return,
            executor::RunOutcome::Idle | executor::RunOutcome::Budget => {
                notifier.wait(Duration::from_millis(10));
            }
        }
    }
}

/// A compact human-readable shape of an execution plan, used in
/// `mode-switch` journal events: domain count, execution-kind breakdown,
/// and worker count, e.g. `"3 domains (3 pooled) x2 workers"`.
pub fn describe_plan(plan: &ExecutionPlan) -> String {
    let mut dedicated = 0usize;
    let mut pooled = 0usize;
    let mut source_driven = 0usize;
    for d in &plan.domains {
        match d.execution {
            DomainExecution::Dedicated => dedicated += 1,
            DomainExecution::Pooled => pooled += 1,
            DomainExecution::SourceDriven => source_driven += 1,
        }
    }
    let mut kinds = Vec::new();
    if dedicated > 0 {
        kinds.push(format!("{dedicated} dedicated"));
    }
    if pooled > 0 {
        kinds.push(format!("{pooled} pooled"));
    }
    if source_driven > 0 {
        kinds.push(format!("{source_driven} source-driven"));
    }
    let mut out = format!("{} domains ({})", plan.domains.len(), kinds.join(", "));
    if pooled > 0 {
        out.push_str(&format!(" x{} workers", plan.workers));
    }
    out
}

/// Builds a cost graph from a topology and explicit inputs (defaults:
/// 1 el/s source rate, 1 µs cost, selectivity 1).
pub fn cost_graph_from_topology(topo: &Topology, inputs: &CostInputs) -> CostGraph {
    let default_rate = inputs.default_source_rate.unwrap_or(1.0);
    let default_cost = inputs.default_cost.unwrap_or(Duration::from_micros(1)).as_secs_f64();
    let default_sel = inputs.default_selectivity.unwrap_or(1.0);
    let n = topo.node_count();
    let mut cost = vec![0.0; n];
    let mut sel = vec![1.0; n];
    let mut src = vec![None; n];
    for i in 0..n {
        let id = NodeId(i);
        if topo.is_source(id) {
            src[i] = Some(inputs.source_rates.get(&id).copied().unwrap_or(default_rate));
        } else {
            cost[i] = inputs.costs.get(&id).map(|d| d.as_secs_f64()).unwrap_or(default_cost);
            sel[i] = inputs.selectivities.get(&id).copied().unwrap_or(default_sel);
        }
    }
    let edges = topo.edges().iter().map(|e| (e.from.0, e.to.0)).collect();
    CostGraph::from_parts(n, edges, cost, sel, src)
}
