//! The domain executor: levels 1 and 2 of the HMTS architecture.
//!
//! A [`DomainExecutor`] owns the operators of one scheduling domain (one or
//! more virtual operators) and their input queues. Execution follows the
//! paper's push-based model (§2.4): an element injected at an operator
//! triggers a *chain reaction* — a depth-first traversal through all
//! directly connected successors — realized here with an explicit LIFO work
//! stack (no recursion, no borrow gymnastics, no stack overflow on long
//! chains). Edges to operators outside the domain's virtual operator go
//! through queues instead, waking the consuming domain.
//!
//! The executor's `run_slice` is the level-2 scheduler: a pluggable
//! [`Strategy`] picks which input queue to service next, and a [`Budget`]
//! bounds the slice so the level-3 thread scheduler can preempt
//! cooperatively at operator granularity.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hmts_graph::graph::NodeId;
use hmts_obs::{Histogram, HopKind, Tracer};
use hmts_operators::traits::{EosTracker, Operator, Output, WatermarkTracker};
use hmts_streams::element::{Element, Message, Punctuation};
use hmts_streams::error::StreamError;
use hmts_streams::queue::StreamQueue;
use hmts_streams::value::Value;

use crate::chaos::{FaultAction, OperatorFaultState};
use crate::checkpoint::CheckpointShared;
use crate::engine::sync::StopFlag;
use crate::scheduler::strategy::{InputSlot, Strategy};
use crate::stats::SharedNodeStats;
use crate::supervisor::{panic_message, Heartbeat, Supervisor, Verdict};

/// Something that can wake a sleeping domain when new input arrives.
pub trait Waker: Send + Sync {
    /// Deliver the wake-up.
    fn wake(&self);
}

impl Waker for crate::engine::sync::Notifier {
    fn wake(&self) {
        self.notify();
    }
}

/// Where an operator's output goes.
pub enum Target {
    /// Direct interoperability: invoke a successor in the same domain.
    Inline {
        /// The successor operator.
        node: NodeId,
        /// Its input port fed by this edge.
        port: usize,
    },
    /// A boundary queue into another (or the same) domain.
    Queue {
        /// The queue.
        queue: Arc<StreamQueue>,
        /// Wakes the consuming domain after a push.
        wake: Option<Arc<dyn Waker>>,
    },
}

/// Construction data for one operator slot.
pub struct SlotInit {
    /// The node this slot hosts.
    pub node: NodeId,
    /// The operator payload.
    pub op: Box<dyn Operator>,
    /// End-of-stream tracking state (fresh, or carried over a mode switch).
    pub eos: EosTracker,
    /// Watermark tracking state.
    pub wm: WatermarkTracker,
    /// Whether the operator already completed (carried over a switch).
    pub closed: bool,
    /// Output routing, one entry per out-edge.
    pub targets: Vec<Target>,
    /// Shared statistics cell, if measurement is enabled (`None` skips
    /// cost timing and statistics for this slot).
    pub stats: Option<SharedNodeStats>,
    /// Per-operator invocation latency histogram, if observability is
    /// enabled (see `hmts_obs`). `None` keeps the hot path free of timing.
    pub latency: Option<Histogram>,
    /// Fault-injection state targeting this operator (see
    /// [`crate::chaos::FaultPlan`]). `None` keeps the hot path to one
    /// branch per tuple.
    pub chaos: Option<Arc<OperatorFaultState>>,
}

/// The state extracted from a slot when a domain is torn down (runtime mode
/// switching): everything needed to resume the operator elsewhere.
pub struct SlotState {
    /// The node.
    pub node: NodeId,
    /// The operator payload.
    pub op: Box<dyn Operator>,
    /// End-of-stream state.
    pub eos: EosTracker,
    /// Watermark state.
    pub wm: WatermarkTracker,
    /// Whether the operator already completed.
    pub closed: bool,
}

struct Slot {
    node: NodeId,
    op: Box<dyn Operator>,
    eos: EosTracker,
    wm: WatermarkTracker,
    closed: bool,
    targets: Vec<Target>,
    stats: Option<SharedNodeStats>,
    latency: Option<Histogram>,
    chaos: Option<Arc<OperatorFaultState>>,
    /// Barrier alignment in progress, if any. `None` keeps the hot path
    /// to one branch per message.
    align: Option<Box<AlignState>>,
    /// Highest checkpoint id this slot has started (or completed) an
    /// alignment for. Barriers at or below it are duplicates from an
    /// aborted attempt and are dropped instead of restarting alignment.
    last_align: u64,
    /// Operator invocations so far; drives cost sampling.
    invocations: u64,
}

/// Alignment state of one slot between its first and last barrier for a
/// checkpoint: which ports delivered the barrier, the input held back on
/// those ports, and when alignment started (for the stall metric).
struct AlignState {
    id: u64,
    seen: Vec<bool>,
    held: VecDeque<(usize, Message)>,
    started: Instant,
}

/// One input queue of a domain, with the edge it implements.
pub struct InputQueue {
    /// The queue.
    pub queue: Arc<StreamQueue>,
    /// The consuming operator.
    pub node: NodeId,
    /// The consuming operator's input port.
    pub port: usize,
    /// Whether end-of-stream has been popped from this queue.
    pub exhausted: bool,
}

/// Execution limits for one `run_slice` call.
#[derive(Clone, Default)]
pub struct Budget {
    /// Stop after this many messages (0 = unlimited).
    pub max_messages: usize,
    /// Stop at this instant.
    pub deadline: Option<Instant>,
    /// Stop when this flag is raised (engine shutdown / mode switch).
    pub stop: Option<Arc<StopFlag>>,
    /// Stop when this flag is raised (level-3 cooperative preemption).
    pub yield_flag: Option<Arc<AtomicBool>>,
}

impl Budget {
    /// An unlimited budget (run until idle or finished).
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    fn exceeded(&self, processed: usize) -> bool {
        (self.max_messages > 0 && processed >= self.max_messages)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
            || self.stop.as_ref().is_some_and(|s| s.is_stopped())
            || self
                .yield_flag
                .as_ref()
                .is_some_and(|y| y.load(std::sync::atomic::Ordering::Acquire))
    }
}

/// Why `run_slice` returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// All inputs delivered end-of-stream and every operator completed.
    Finished,
    /// No input available right now; wait for a wake-up.
    Idle,
    /// The budget was exhausted with work still pending.
    Budget,
}

/// The cost model times one operator invocation in this many per slot,
/// starting with the first: two clock reads cost about as much as a cheap
/// operator, and `c(v)` is a smoothed mean that sampling does not bias.
/// Only slots with a stats cell are timed for the cost model; the processed
/// count, selectivity and arrival statistics still see every invocation,
/// and an attached latency histogram still times every one.
const COST_SAMPLE_EVERY: u64 = 16;

/// Executor configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Messages popped per strategy decision.
    pub batch: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { batch: 32 }
    }
}

/// Per-domain tuple-tracing context: the shared span recorder plus
/// interned site names, so recording a hop for a sampled tuple never
/// allocates for operator sites and the unsampled path is one branch.
struct TraceCtx {
    tracer: Arc<Tracer>,
    /// Partition (domain index) for span attribution.
    partition: u32,
    /// Operator name per slot, parallel to `slots`.
    slot_sites: Vec<Arc<str>>,
    /// Queue name per input, parallel to `inputs`.
    input_sites: Vec<Arc<str>>,
}

/// The executor of one scheduling domain.
pub struct DomainExecutor {
    name: String,
    index: HashMap<NodeId, usize>,
    slots: Vec<Slot>,
    inputs: Vec<InputQueue>,
    strategy: Box<dyn Strategy>,
    /// Messages to re-deliver before popping queues (seeded from drained
    /// queues during a mode switch).
    pending: VecDeque<(NodeId, usize, Message)>,
    /// The DI chain-reaction work stack.
    stack: Vec<(NodeId, usize, Message)>,
    /// Messages released from alignment hold-back, re-delivered once the
    /// current chain reaction (including barrier propagation) completes.
    replay: VecDeque<(NodeId, usize, Message)>,
    out: Output,
    cfg: ExecConfig,
    /// Slots not yet closed.
    live: usize,
    /// First operator error, if any (elements causing errors are dropped).
    error: Option<StreamError>,
    /// Tuple tracing, when the engine's `Obs` handle has it configured.
    trace: Option<TraceCtx>,
    /// Failure bookkeeping shared across the query's executors; `None`
    /// means a caught panic closes the operator and is reported via
    /// [`take_panics`](DomainExecutor::take_panics).
    supervisor: Option<Arc<Supervisor>>,
    /// Liveness beacon for stall detection (entered/exited per dispatch).
    heartbeat: Option<Arc<Heartbeat>>,
    /// Barrier-checkpoint coordination; `None` keeps the hot path free of
    /// checkpoint branches beyond the per-slot `align` check.
    checkpoint: Option<Arc<CheckpointShared>>,
    /// Panics that terminated an operator without a restart (no
    /// supervisor, or `DegradeMode::FailQuery`): `(operator, payload)`.
    panics: Vec<(String, String)>,
}

impl DomainExecutor {
    /// Builds an executor from its slots, input queues, and strategy.
    pub fn new(
        name: impl Into<String>,
        slots: Vec<SlotInit>,
        inputs: Vec<InputQueue>,
        strategy: Box<dyn Strategy>,
        cfg: ExecConfig,
    ) -> DomainExecutor {
        let mut index = HashMap::with_capacity(slots.len());
        let slots: Vec<Slot> = slots
            .into_iter()
            .map(|s| Slot {
                node: s.node,
                op: s.op,
                eos: s.eos,
                wm: s.wm,
                closed: s.closed,
                targets: s.targets,
                stats: s.stats,
                latency: s.latency,
                chaos: s.chaos,
                align: None,
                last_align: 0,
                invocations: 0,
            })
            .collect();
        for (i, s) in slots.iter().enumerate() {
            index.insert(s.node, i);
        }
        let live = slots.iter().filter(|s| !s.closed).count();
        DomainExecutor {
            name: name.into(),
            index,
            slots,
            inputs,
            strategy,
            pending: VecDeque::new(),
            stack: Vec::new(),
            replay: VecDeque::new(),
            out: Output::new(),
            cfg,
            live,
            error: None,
            trace: None,
            supervisor: None,
            heartbeat: None,
            checkpoint: None,
            panics: Vec::new(),
        }
    }

    /// Attaches the query's shared supervisor (panic restart/quarantine).
    pub fn set_supervisor(&mut self, supervisor: Arc<Supervisor>) {
        self.supervisor = Some(supervisor);
    }

    /// Attaches the query's checkpoint coordination state: barriers
    /// aligned by this executor acknowledge (and snapshot) through it,
    /// and slot closures decrement its live-slot quorum.
    pub fn set_checkpoint(&mut self, checkpoint: Arc<CheckpointShared>) {
        self.checkpoint = Some(checkpoint);
    }

    /// Live (not yet closed) slots in this executor.
    pub fn live_slots(&self) -> usize {
        self.live
    }

    /// Attaches the liveness beacon observed by the stall monitor thread.
    pub fn set_heartbeat(&mut self, heartbeat: Arc<Heartbeat>) {
        self.heartbeat = Some(heartbeat);
    }

    /// Drains the operator panics that were not (or could not be)
    /// restarted: `(operator name, panic payload)` pairs.
    pub fn take_panics(&mut self) -> Vec<(String, String)> {
        std::mem::take(&mut self.panics)
    }

    /// The domain's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attaches the per-tuple span recorder, attributing this domain's
    /// hops to `partition`. Site names (operator and input-queue names)
    /// are interned once here so the recording fast path never allocates.
    pub fn set_tracer(&mut self, tracer: Arc<Tracer>, partition: u32) {
        let slot_sites = self.slots.iter().map(|s| Arc::from(s.op.name())).collect();
        let input_sites = self.inputs.iter().map(|q| Arc::from(q.queue.name())).collect();
        self.trace = Some(TraceCtx { tracer, partition, slot_sites, input_sites });
    }

    /// Queues a message for delivery before normal queue consumption (used
    /// to re-seed in-flight messages across a mode switch).
    pub fn seed(&mut self, node: NodeId, port: usize, msg: Message) {
        self.pending.push_back((node, port, msg));
    }

    /// Synchronously processes one message through the domain (the DI chain
    /// reaction). Used directly by source-driven execution.
    pub fn inject(&mut self, node: NodeId, port: usize, msg: Message) {
        debug_assert!(self.stack.is_empty());
        self.stack.push((node, port, msg));
        if let Some(hb) = self.heartbeat.clone() {
            hb.enter();
            self.drain_stack();
            hb.exit();
        } else {
            self.drain_stack();
        }
    }

    fn drain_stack(&mut self) {
        loop {
            while let Some((node, port, msg)) = self.stack.pop() {
                let Some(&i) = self.index.get(&node) else {
                    // Routing bug; record once and drop.
                    self.set_error(StreamError::Other(format!("no slot for node {node}")));
                    continue;
                };
                if self.slots[i].closed {
                    continue;
                }
                self.dispatch(i, port, msg);
            }
            // Replay held-back input only once the stack is empty: the
            // barrier forwarded at alignment has then fully propagated
            // through the DI chain, so no post-barrier output can overtake
            // it on the way to a downstream slot.
            if self.replay.is_empty() {
                break;
            }
            while let Some(entry) = self.replay.pop_back() {
                self.stack.push(entry);
            }
        }
    }

    /// Delivers one message to slot `i` on `port`: alignment hold-back
    /// first (once a port delivered the barrier, everything after it on
    /// that port is parked until the barrier arrives on the remaining
    /// ports, so pre- and post-barrier input never mix in the snapshot),
    /// then the per-kind handler.
    fn dispatch(&mut self, i: usize, port: usize, msg: Message) {
        if let Some(al) = self.slots[i].align.as_deref_mut() {
            if al.seen.get(port).copied().unwrap_or(false) {
                al.held.push_back((port, msg));
                return;
            }
        }
        match msg {
            Message::Data(el) => self.process_data(i, port, el),
            Message::Punct(Punctuation::EndOfStream) => {
                self.process_eos(i, port);
                // An EOS-closed port counts as aligned; this may
                // complete an alignment waiting on it.
                self.check_alignment(i);
            }
            Message::Punct(Punctuation::Watermark(ts)) => self.process_watermark(i, port, ts),
            Message::Punct(Punctuation::Barrier(id)) => self.process_barrier(i, port, id),
        }
    }

    /// Handles a barrier arriving at slot `i` on `port`: starts (or joins)
    /// the alignment for checkpoint `id`.
    fn process_barrier(&mut self, i: usize, port: usize, id: u64) {
        match self.slots[i].align.as_deref_mut() {
            Some(al) if al.id == id => {
                if let Some(seen) = al.seen.get_mut(port) {
                    *seen = true;
                }
            }
            Some(al) if id > al.id => {
                // A barrier from a *newer* checkpoint while an older
                // alignment is still parked: the old attempt was abandoned
                // (coordinator timeout, plan switch). The input held back
                // for it arrived *before* this barrier, so it is
                // pre-barrier for checkpoint `id`: deliver it through the
                // operator now, before any alignment state for `id`
                // exists, so its effects land in the new snapshot instead
                // of being re-parked as post-barrier input (which would
                // lose it — the source's acked offset includes it). A
                // newer barrier parked inside the held backlog re-enters
                // here and starts its own alignment at the right point.
                let old = self.slots[i].align.take().expect("matched above");
                for (p, msg) in old.held {
                    self.dispatch(i, p, msg);
                }
                if self.slots[i].closed {
                    // Delivering the backlog terminated the slot (EOS or
                    // quarantine); downstream already got its EOS.
                    return;
                }
                self.process_barrier(i, port, id);
                return;
            }
            Some(_) => {
                // A late barrier from an already-superseded (aborted)
                // attempt: drop it. Restarting alignment with an old id
                // would ping-pong the slot between checkpoints.
                return;
            }
            None => {
                if id <= self.slots[i].last_align {
                    // Duplicate of an alignment this slot already started
                    // or completed (a straggler path of an aborted
                    // attempt).
                    return;
                }
                self.start_alignment(i, port, id);
            }
        }
        self.check_alignment(i);
    }

    fn start_alignment(&mut self, i: usize, port: usize, id: u64) {
        let arity = self.slots[i].op.input_arity();
        let mut seen = vec![false; arity];
        if let Some(s) = seen.get_mut(port) {
            *s = true;
        }
        self.slots[i].last_align = id;
        self.slots[i].align =
            Some(Box::new(AlignState { id, seen, held: VecDeque::new(), started: Instant::now() }));
    }

    /// If slot `i` is aligning and the barrier has arrived on every port
    /// that is still open (EOS-closed ports count as aligned), completes
    /// the alignment: snapshot, acknowledge, forward the barrier, release
    /// held input for replay.
    fn check_alignment(&mut self, i: usize) {
        if self.slots[i].align.is_none() {
            return;
        }
        if self.slots[i].closed {
            // The slot terminated (quarantine) mid-alignment; its held
            // input is moot — downstream already received EOS.
            self.slots[i].align = None;
            return;
        }
        let complete = {
            let slot = &self.slots[i];
            let al = slot.align.as_deref().expect("checked above");
            al.seen.iter().enumerate().all(|(p, seen)| *seen || !slot.eos.is_open(p))
        };
        if !complete {
            return;
        }
        let al = self.slots[i].align.take().expect("alignment checked above");
        let stall_ns = al.started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let blob = self.slots[i].op.stateful().map(|s| s.snapshot());
        if let Some(ck) = &self.checkpoint {
            ck.ack_operator(al.id, self.slots[i].op.name(), blob, stall_ns);
        }
        self.forward_punct(i, Punctuation::Barrier(al.id));
        let node = self.slots[i].node;
        for (port, msg) in al.held {
            self.replay.push_back((node, port, msg));
        }
    }

    fn process_data(&mut self, i: usize, port: usize, el: Element) {
        // Fault injection: a slot without chaos state pays one `None`
        // branch here (the disabled path measured by `micro_obs`).
        let mut inject_panic = false;
        let mut corrupt = false;
        if let Some(chaos) = &self.slots[i].chaos {
            match chaos.on_invocation() {
                None => {}
                Some(FaultAction::Panic) => inject_panic = true,
                Some(FaultAction::Stall(d)) => std::thread::sleep(d),
                Some(FaultAction::Corrupt) => corrupt = true,
            }
        }
        let slot = &mut self.slots[i];
        let sampled = slot.invocations % COST_SAMPLE_EVERY == 0;
        slot.invocations += 1;
        let measure = (sampled && slot.stats.is_some()) || slot.latency.is_some();
        // One non-zero branch for unsampled tuples; span recording (and
        // its site clone) happens only for the sampled 1-in-N.
        let tag = el.trace;
        let traced = tag.is_sampled() && self.trace.is_some();
        if traced {
            let tc = self.trace.as_ref().expect("checked above");
            tc.tracer.record(tag.id(), HopKind::ProcessStart, &tc.slot_sites[i], tc.partition);
        }
        let start = measure.then(Instant::now);
        // Isolation boundary. `Box<dyn Operator>` is not `UnwindSafe`
        // because operators hold interior state; `AssertUnwindSafe` is
        // sound here because after a caught panic the operator is either
        // (a) retried — the built-in operators mutate their state only
        // after computing outputs, so a panic mid-call leaves the state as
        // if the call never happened — or (b) quarantined/failed, in which
        // case nothing touches it again.
        let result = {
            let slot = &mut self.slots[i];
            let out = &mut self.out;
            catch_unwind(AssertUnwindSafe(|| {
                if inject_panic {
                    panic!("chaos: injected panic in operator '{}'", slot.op.name());
                }
                slot.op.process(port, &el, out)
            }))
        };
        let cost = start.map(|t| t.elapsed());
        if traced {
            let tc = self.trace.as_ref().expect("checked above");
            tc.tracer.record(tag.id(), HopKind::ProcessEnd, &tc.slot_sites[i], tc.partition);
        }
        match result {
            Ok(Ok(())) => {
                if corrupt {
                    self.corrupt_outputs();
                }
                if let Some(stats) = &self.slots[i].stats {
                    stats.observe(el.ts, cost, self.out.len() as u64);
                }
                if let (Some(h), Some(c)) = (&self.slots[i].latency, cost) {
                    h.record_duration(c);
                }
                if traced {
                    // Results constructed inside the operator (projections,
                    // joins) inherit the input's trace context.
                    self.out.stamp_trace(tag);
                }
                self.deliver_outputs(i);
            }
            Ok(Err(e)) => {
                self.out.clear();
                self.set_error(e);
            }
            Err(payload) => {
                self.out.clear();
                self.handle_panic(i, port, el, panic_message(payload.as_ref()));
            }
        }
    }

    /// Replaces every pending output with a null-field tuple of the same
    /// arity (the `FaultAction::Corrupt` silent-corruption model). Route
    /// tags survive corruption — the fault model garbles payloads, not
    /// the splitter's addressing.
    fn corrupt_outputs(&mut self) {
        let routes = self.out.take_routes();
        let corrupted: Vec<Element> = self
            .out
            .drain()
            .map(|e| {
                let nulls = vec![Value::Null; e.tuple.arity()];
                Element::new(hmts_streams::tuple::Tuple::new(nulls), e.ts)
            })
            .collect();
        for (idx, e) in corrupted.into_iter().enumerate() {
            match routes.get(idx) {
                Some(&r) if r != Output::BROADCAST => self.out.push_routed(r, e),
                _ => self.out.push(e),
            }
        }
    }

    /// Applies the supervisor's verdict to a panic caught in slot `i`
    /// while processing `el`. Without a supervisor the operator is closed
    /// and the panic surfaces via [`take_panics`](DomainExecutor::take_panics).
    fn handle_panic(&mut self, i: usize, port: usize, el: Element, msg: String) {
        let Some(backoff) = self.book_panic(i, msg) else {
            return;
        };
        std::thread::sleep(backoff);
        // Roll the operator back to its last checkpointed state (when
        // checkpointing is on and it has snapshotted before), so a panic
        // that corrupted in-memory state does not leak into the retry. A
        // failed restore keeps the current state — the retry still
        // proceeds, matching the pre-checkpoint behaviour.
        if let Some(ck) = self.checkpoint.clone() {
            let operator = self.slots[i].op.name().to_string();
            if let Some((ckpt_id, blob)) = ck.latest_blob(&operator) {
                if let Some(st) = self.slots[i].op.stateful() {
                    if st.restore(blob).is_ok() {
                        // The rollback silently drops everything this
                        // operator processed since the checkpoint (nothing
                        // replays at this layer), so make the regression
                        // observable.
                        ck.note_rollback(&operator, ckpt_id);
                    }
                }
            }
        }
        // Retry the failed element next (LIFO): input order for this
        // operator is preserved because its outputs were discarded and
        // nothing downstream saw the element.
        self.stack.push((self.slots[i].node, port, Message::Data(el)));
    }

    /// Closes slot `i` after a terminal panic: downstream operators get a
    /// clean EOS so the rest of the query completes (graceful
    /// degradation). The operator's `flush` is deliberately *not* called —
    /// it just panicked, its in-flight state is untrusted.
    fn close_slot(&mut self, i: usize) {
        self.forward_punct(i, Punctuation::EndOfStream);
        if !self.slots[i].closed {
            self.slots[i].closed = true;
            self.dec_live();
        }
    }

    /// Books one slot closure, shrinking the checkpoint coordinator's
    /// alignment quorum along with the local live count.
    fn dec_live(&mut self) {
        self.live -= 1;
        if let Some(ck) = &self.checkpoint {
            let _ = ck.live_slots().fetch_update(
                std::sync::atomic::Ordering::AcqRel,
                std::sync::atomic::Ordering::Acquire,
                |v| v.checked_sub(1),
            );
        }
    }

    fn process_eos(&mut self, i: usize, port: usize) {
        if !self.slots[i].closed {
            // Give the operator a chance to release anything gated on this
            // port's progress (the shard merge's held-back sequences)
            // before the port is booked closed.
            self.guarded_hook(i, |op, out| op.on_eos(port, out));
            self.deliver_outputs(i);
        }
        if !self.slots[i].eos.close(port) {
            return;
        }
        // Last port closed: flush, deliver, forward EOS, close. A
        // panicking flush is recorded and the close proceeds, so downstream
        // still gets its EOS.
        self.guarded_hook(i, |op, out| op.flush(out));
        // A panicking flush may have already closed the slot (and
        // forwarded EOS) via `close_slot`; `out` was cleared then.
        if self.slots[i].closed {
            self.deliver_outputs(i);
            return;
        }
        // Inline EOS goes onto the LIFO stack *below* the flush outputs
        // (pushed first → popped last); queue EOS goes *after* them
        // (FIFO). Successors of either kind then see the flush output
        // before the close, instead of closing first and dropping it.
        self.forward_punct_inline(i, Punctuation::EndOfStream);
        self.deliver_outputs(i);
        self.forward_punct_queues(i, Punctuation::EndOfStream);
        self.slots[i].closed = true;
        self.dec_live();
    }

    fn process_watermark(&mut self, i: usize, port: usize, ts: hmts_streams::time::Timestamp) {
        let Some(combined) = self.slots[i].wm.observe(port, ts) else {
            return;
        };
        // A panicking handler is recorded; the watermark still propagates
        // so downstream state keeps expiring.
        self.guarded_hook(i, |op, out| op.on_watermark(port, combined, out));
        // Same ordering as `process_eos`: anything the watermark handler
        // emitted reaches successors before the watermark itself.
        if self.slots[i].closed {
            self.deliver_outputs(i);
            return;
        }
        self.forward_punct_inline(i, Punctuation::Watermark(combined));
        self.deliver_outputs(i);
        self.forward_punct_queues(i, Punctuation::Watermark(combined));
    }

    /// Runs one of slot `i`'s non-retryable hooks (`on_eos`, `flush`,
    /// `on_watermark`) behind the isolation boundary. There is no element
    /// to redeliver, so nothing is retried: an error is kept (if first)
    /// and a panic is booked with the supervisor; either way the hook's
    /// pending outputs are discarded.
    fn guarded_hook(
        &mut self,
        i: usize,
        hook: impl FnOnce(&mut dyn Operator, &mut Output) -> Result<(), StreamError>,
    ) {
        let result = {
            let slot = &mut self.slots[i];
            let out = &mut self.out;
            catch_unwind(AssertUnwindSafe(|| hook(slot.op.as_mut(), out)))
        };
        match result {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                self.out.clear();
                self.set_error(e);
            }
            Err(payload) => {
                self.out.clear();
                self.book_panic(i, panic_message(payload.as_ref()));
            }
        }
    }

    /// Books a panic caught in slot `i` with the supervisor. A restart
    /// verdict returns its backoff (only the element path can retry; for
    /// the hooks the panic still counts toward the quarantine window).
    /// Quarantine fails the query with an error, `FailQuery` (or no
    /// supervisor) records the panic for
    /// [`take_panics`](DomainExecutor::take_panics); both close the slot.
    fn book_panic(&mut self, i: usize, msg: String) -> Option<Duration> {
        let operator = self.slots[i].op.name().to_string();
        match self.supervisor.as_ref().map(|s| s.on_panic(&operator, &msg)) {
            Some(Verdict::Restart { backoff, .. }) => return Some(backoff),
            Some(Verdict::Quarantine { failures }) => self.set_error(StreamError::Other(format!(
                "operator '{operator}' quarantined after {failures} failures: {msg}"
            ))),
            Some(Verdict::Fail) | None => self.panics.push((operator, msg)),
        }
        self.close_slot(i);
        None
    }

    /// Keeps `e` as the executor's error unless an earlier one is set
    /// (elements causing later errors are dropped silently).
    fn set_error(&mut self, e: StreamError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    /// Routes everything in `self.out` to slot `i`'s targets: queue targets
    /// in forward order (FIFO), inline targets pushed in reverse so the
    /// LIFO stack realizes the paper's depth-first traversal.
    ///
    /// An element tagged with a route (see [`Output::push_routed`]) goes to
    /// exactly one target — the one at the route's out-edge ordinal, which
    /// is its index in `targets` because both follow graph edge order.
    /// Untagged elements broadcast to every target, as ever.
    fn deliver_outputs(&mut self, i: usize) {
        if self.out.is_empty() {
            return;
        }
        let routes = self.out.take_routes();
        let takes = |idx: usize, ti: usize| match routes.get(idx) {
            Some(&r) if r != Output::BROADCAST => r as usize == ti,
            _ => true,
        };
        let outputs: Vec<Element> = self.out.drain().collect();
        for (ti, t) in self.slots[i].targets.iter().enumerate() {
            if let Target::Queue { queue, wake } = t {
                let mut pushed = false;
                for (idx, el) in outputs.iter().enumerate() {
                    if !takes(idx, ti) {
                        continue;
                    }
                    if el.trace.is_sampled() {
                        if let Some(tc) = &self.trace {
                            tc.tracer.record_site(
                                el.trace.id(),
                                HopKind::QueueEnter,
                                queue.name(),
                                tc.partition,
                            );
                        }
                    }
                    // A closed queue only happens during teardown; the
                    // element is intentionally dropped then.
                    let _ = queue.push(Message::Data(el.clone()));
                    pushed = true;
                }
                if pushed {
                    if let Some(w) = wake {
                        w.wake();
                    }
                }
            }
        }
        for (idx, el) in outputs.iter().enumerate().rev() {
            for (ti, t) in self.slots[i].targets.iter().enumerate().rev() {
                if let Target::Inline { node, port } = t {
                    if takes(idx, ti) {
                        self.stack.push((*node, *port, Message::Data(el.clone())));
                    }
                }
            }
        }
    }

    fn forward_punct(&mut self, i: usize, p: Punctuation) {
        self.forward_punct_queues(i, p);
        self.forward_punct_inline(i, p);
    }

    fn forward_punct_queues(&mut self, i: usize, p: Punctuation) {
        for t in &self.slots[i].targets {
            if let Target::Queue { queue, wake } = t {
                let _ = queue.push(Message::Punct(p));
                if let Some(w) = wake {
                    w.wake();
                }
            }
        }
    }

    fn forward_punct_inline(&mut self, i: usize, p: Punctuation) {
        for t in self.slots[i].targets.iter().rev() {
            if let Target::Inline { node, port } = t {
                self.stack.push((*node, *port, Message::Punct(p)));
            }
        }
    }

    /// Whether every input queue has delivered end-of-stream and every
    /// operator has completed.
    pub fn is_finished(&self) -> bool {
        self.pending.is_empty() && self.inputs.iter().all(|q| q.exhausted) && self.live == 0
    }

    /// Whether any input has work pending right now.
    pub fn has_work(&self) -> bool {
        !self.pending.is_empty() || self.inputs.iter().any(|q| !q.exhausted && !q.queue.is_empty())
    }

    /// Runs the level-2 scheduling loop until the budget is exhausted, the
    /// inputs run dry, or the domain finishes.
    pub fn run_slice(&mut self, budget: &Budget) -> RunOutcome {
        let mut processed = 0usize;

        while let Some((node, port, msg)) = self.pending.pop_front() {
            self.inject(node, port, msg);
            processed += 1;
            if budget.exceeded(processed) {
                return self.slice_status();
            }
        }

        loop {
            let view: Vec<InputSlot> = self
                .inputs
                .iter()
                .map(|q| InputSlot {
                    consumer: q.node,
                    len: if q.exhausted { 0 } else { q.queue.len() },
                    head_ts: q.queue.peek_ts(),
                })
                .collect();
            let Some(i) = self.strategy.select(&view) else {
                return self.slice_status();
            };
            for _ in 0..self.cfg.batch.max(1) {
                let Some(msg) = self.inputs[i].queue.try_pop() else {
                    break;
                };
                if let Message::Data(el) = &msg {
                    if el.trace.is_sampled() {
                        if let Some(tc) = &self.trace {
                            tc.tracer.record(
                                el.trace.id(),
                                HopKind::QueueExit,
                                &tc.input_sites[i],
                                tc.partition,
                            );
                        }
                    }
                }
                if msg.is_eos() {
                    self.inputs[i].exhausted = true;
                }
                let (node, port) = (self.inputs[i].node, self.inputs[i].port);
                self.inject(node, port, msg);
                processed += 1;
                if budget.exceeded(processed) {
                    return self.slice_status();
                }
            }
        }
    }

    fn slice_status(&self) -> RunOutcome {
        if self.is_finished() {
            RunOutcome::Finished
        } else if self.has_work() {
            RunOutcome::Budget
        } else {
            RunOutcome::Idle
        }
    }

    /// The first operator error observed, if any.
    pub fn error(&self) -> Option<&StreamError> {
        self.error.as_ref()
    }

    /// Drains all input queues, returning the in-flight messages together
    /// with their destination. Called during a mode switch after producers
    /// have stopped.
    pub fn take_input_remnants(&mut self) -> Vec<(NodeId, usize, Message)> {
        let mut out: Vec<(NodeId, usize, Message)> =
            std::mem::take(&mut self.pending).into_iter().collect();
        // In-flight alignment state does not survive a re-wiring: held
        // messages and the replay backlog become ordinary remnants (the
        // checkpoint they were parked for is aborted by its timeout and
        // retried against the new wiring).
        out.extend(std::mem::take(&mut self.replay));
        for s in &mut self.slots {
            if let Some(al) = s.align.take() {
                for (port, msg) in al.held {
                    out.push((s.node, port, msg));
                }
            }
        }
        for q in &mut self.inputs {
            for msg in q.queue.drain() {
                out.push((q.node, q.port, msg));
            }
        }
        out
    }

    /// Extracts every slot's resume state, leaving the executor empty (used
    /// during a mode switch, where the executor may still be referenced by
    /// an `Arc` held elsewhere).
    pub fn extract(&mut self) -> Vec<SlotState> {
        self.live = 0;
        self.index.clear();
        std::mem::take(&mut self.slots)
            .into_iter()
            .map(|s| SlotState { node: s.node, op: s.op, eos: s.eos, wm: s.wm, closed: s.closed })
            .collect()
    }

    /// Tears the executor down into per-operator resume state.
    pub fn into_slot_states(mut self) -> Vec<SlotState> {
        self.extract()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::strategy::StrategyKind;
    use hmts_operators::expr::Expr;
    use hmts_operators::filter::Filter;
    use hmts_operators::sink::CollectingSink;
    use hmts_streams::time::Timestamp;
    use hmts_streams::tuple::Tuple;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn data(v: i64, us: u64) -> Message {
        Message::data(Tuple::single(v), Timestamp::from_micros(us))
    }

    fn slot(node: usize, op: Box<dyn Operator>, targets: Vec<Target>) -> SlotInit {
        let arity = op.input_arity();
        SlotInit {
            node: NodeId(node),
            op,
            eos: EosTracker::new(arity),
            wm: WatermarkTracker::new(arity),
            closed: false,
            targets,
            stats: None,
            latency: None,
            chaos: None,
        }
    }

    /// Filter chain 1 -> 2 -> sink 3, all inline (one VO), fed by queue q.
    fn di_chain() -> (DomainExecutor, Arc<StreamQueue>, hmts_operators::sink::SinkHandle) {
        let (sink, handle) = CollectingSink::new("sink");
        let q = StreamQueue::unbounded("in");
        let slots = vec![
            slot(
                1,
                Box::new(Filter::new("f1", Expr::field(0).lt(Expr::int(100)))),
                vec![Target::Inline { node: NodeId(2), port: 0 }],
            ),
            slot(
                2,
                Box::new(Filter::new("f2", Expr::field(0).gt(Expr::int(10)))),
                vec![Target::Inline { node: NodeId(3), port: 0 }],
            ),
            slot(3, Box::new(sink), vec![]),
        ];
        let inputs =
            vec![InputQueue { queue: Arc::clone(&q), node: NodeId(1), port: 0, exhausted: false }];
        let exec = DomainExecutor::new(
            "d",
            slots,
            inputs,
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        (exec, q, handle)
    }

    #[test]
    fn di_chain_reaction_filters_and_collects() {
        let (mut exec, q, handle) = di_chain();
        for (i, v) in [5i64, 50, 500, 11, 99].into_iter().enumerate() {
            q.push(data(v, i as u64)).unwrap();
        }
        q.push(Message::eos()).unwrap();
        let outcome = exec.run_slice(&Budget::unlimited());
        assert_eq!(outcome, RunOutcome::Finished);
        let vals: Vec<i64> =
            handle.elements().iter().map(|e| e.tuple.field(0).as_int().unwrap()).collect();
        assert_eq!(vals, vec![50, 11, 99]);
        assert!(handle.is_done());
        assert!(exec.error().is_none());
        assert!(exec.is_finished());
    }

    #[test]
    fn idle_when_no_input_yet() {
        let (mut exec, q, _) = di_chain();
        assert_eq!(exec.run_slice(&Budget::unlimited()), RunOutcome::Idle);
        assert!(!exec.has_work());
        q.push(data(50, 1)).unwrap();
        assert!(exec.has_work());
        assert_eq!(exec.run_slice(&Budget::unlimited()), RunOutcome::Idle);
    }

    #[test]
    fn budget_limits_slice() {
        let (mut exec, q, handle) = di_chain();
        for i in 0..100 {
            q.push(data(50, i)).unwrap();
        }
        let budget = Budget { max_messages: 10, ..Budget::default() };
        assert_eq!(exec.run_slice(&budget), RunOutcome::Budget);
        assert_eq!(handle.count(), 10);
        // Remaining work completes on the next slices.
        q.push(Message::eos()).unwrap();
        while exec.run_slice(&budget) != RunOutcome::Finished {}
        assert_eq!(handle.count(), 100);
    }

    #[test]
    fn stop_flag_interrupts() {
        let (mut exec, q, _) = di_chain();
        for i in 0..10 {
            q.push(data(50, i)).unwrap();
        }
        let stop = Arc::new(StopFlag::new());
        stop.stop();
        let budget = Budget { stop: Some(Arc::clone(&stop)), ..Budget::default() };
        assert_eq!(exec.run_slice(&budget), RunOutcome::Budget);
    }

    #[test]
    fn inject_runs_synchronously() {
        let (mut exec, _q, handle) = di_chain();
        exec.inject(NodeId(1), 0, data(42, 1));
        assert_eq!(handle.count(), 1);
        exec.inject(NodeId(1), 0, Message::eos());
        assert!(handle.is_done());
        // The domain still has an unexhausted input queue, so not finished.
        assert!(!exec.is_finished());
    }

    #[test]
    fn queue_targets_forward_and_wake() {
        struct CountWaker(AtomicUsize);
        impl Waker for CountWaker {
            fn wake(&self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let out_q = StreamQueue::unbounded("out");
        let waker = Arc::new(CountWaker(AtomicUsize::new(0)));
        let slots = vec![slot(
            1,
            Box::new(Filter::new("f", Expr::bool(true))),
            vec![Target::Queue {
                queue: Arc::clone(&out_q),
                wake: Some(Arc::clone(&waker) as Arc<dyn Waker>),
            }],
        )];
        let mut exec = DomainExecutor::new(
            "d",
            slots,
            vec![],
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        exec.inject(NodeId(1), 0, data(1, 1));
        exec.inject(NodeId(1), 0, data(2, 2));
        exec.inject(NodeId(1), 0, Message::eos());
        assert_eq!(out_q.len(), 3); // two data + EOS
        assert!(waker.0.load(Ordering::Relaxed) >= 3);
        assert!(exec.is_finished()); // no inputs, slot closed
                                     // FIFO order preserved through the queue.
        assert_eq!(out_q.try_pop().unwrap().as_data().unwrap().tuple.field(0).as_int().unwrap(), 1);
    }

    #[test]
    fn fanout_delivers_depth_first_to_both_branches() {
        // 1 -> {2, 3} (both sinks). Depth-first: per element, branch 2
        // before branch 3.
        let (s2, h2) = CollectingSink::new("s2");
        let (s3, h3) = CollectingSink::new("s3");
        let slots = vec![
            slot(
                1,
                Box::new(Filter::new("f", Expr::bool(true))),
                vec![
                    Target::Inline { node: NodeId(2), port: 0 },
                    Target::Inline { node: NodeId(3), port: 0 },
                ],
            ),
            slot(2, Box::new(s2), vec![]),
            slot(3, Box::new(s3), vec![]),
        ];
        let mut exec = DomainExecutor::new(
            "d",
            slots,
            vec![],
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        exec.inject(NodeId(1), 0, data(7, 1));
        assert_eq!(h2.count(), 1);
        assert_eq!(h3.count(), 1);
        exec.inject(NodeId(1), 0, Message::eos());
        assert!(h2.is_done() && h3.is_done());
    }

    #[test]
    fn eos_waits_for_all_ports() {
        // Binary union 1 <- two queues; sink 2.
        let (sink, handle) = CollectingSink::new("s");
        let qa = StreamQueue::unbounded("a");
        let qb = StreamQueue::unbounded("b");
        let slots = vec![
            slot(
                1,
                Box::new(hmts_operators::union::Union::new("u", 2)),
                vec![Target::Inline { node: NodeId(2), port: 0 }],
            ),
            slot(2, Box::new(sink), vec![]),
        ];
        let inputs = vec![
            InputQueue { queue: Arc::clone(&qa), node: NodeId(1), port: 0, exhausted: false },
            InputQueue { queue: Arc::clone(&qb), node: NodeId(1), port: 1, exhausted: false },
        ];
        let mut exec = DomainExecutor::new(
            "d",
            slots,
            inputs,
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        qa.push(data(1, 1)).unwrap();
        qa.push(Message::eos()).unwrap();
        assert_eq!(exec.run_slice(&Budget::unlimited()), RunOutcome::Idle);
        assert!(!handle.is_done(), "EOS only on one port");
        qb.push(data(2, 2)).unwrap();
        qb.push(Message::eos()).unwrap();
        assert_eq!(exec.run_slice(&Budget::unlimited()), RunOutcome::Finished);
        assert!(handle.is_done());
        assert_eq!(handle.count(), 2);
    }

    #[test]
    fn operator_error_is_recorded_and_skipped() {
        let (sink, handle) = CollectingSink::new("s");
        let q = StreamQueue::unbounded("in");
        let slots = vec![
            slot(
                1,
                // References field 5 of single-field tuples → error.
                Box::new(Filter::new("bad", Expr::field(5).lt(Expr::int(1)))),
                vec![Target::Inline { node: NodeId(2), port: 0 }],
            ),
            slot(2, Box::new(sink), vec![]),
        ];
        let inputs =
            vec![InputQueue { queue: Arc::clone(&q), node: NodeId(1), port: 0, exhausted: false }];
        let mut exec = DomainExecutor::new(
            "d",
            slots,
            inputs,
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        q.push(data(1, 1)).unwrap();
        q.push(Message::eos()).unwrap();
        assert_eq!(exec.run_slice(&Budget::unlimited()), RunOutcome::Finished);
        assert!(matches!(exec.error(), Some(StreamError::FieldOutOfBounds { .. })));
        assert_eq!(handle.count(), 0);
        assert!(handle.is_done(), "EOS still flows despite the error");
    }

    #[test]
    fn watermarks_combine_and_expire_state() {
        use hmts_operators::join::SymmetricHashJoin;
        use std::time::Duration;
        let join = SymmetricHashJoin::on_field("j", 0, Duration::from_secs(10));
        let qa = StreamQueue::unbounded("a");
        let qb = StreamQueue::unbounded("b");
        let (sink, _h) = CollectingSink::new("s");
        let slots = vec![
            slot(1, Box::new(join), vec![Target::Inline { node: NodeId(2), port: 0 }]),
            slot(2, Box::new(sink), vec![]),
        ];
        let inputs = vec![
            InputQueue { queue: Arc::clone(&qa), node: NodeId(1), port: 0, exhausted: false },
            InputQueue { queue: Arc::clone(&qb), node: NodeId(1), port: 1, exhausted: false },
        ];
        let mut exec = DomainExecutor::new(
            "d",
            slots,
            inputs,
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        qa.push(data(1, 0)).unwrap();
        qb.push(data(2, 0)).unwrap();
        // Watermark on only one port does not advance the combined mark.
        qa.push(Message::Punct(Punctuation::Watermark(Timestamp::from_secs(100)))).unwrap();
        exec.run_slice(&Budget::unlimited());
        qb.push(Message::Punct(Punctuation::Watermark(Timestamp::from_secs(100)))).unwrap();
        exec.run_slice(&Budget::unlimited());
        // Combined watermark of 100 s with a 10 s window: both sides empty.
        // (Verified indirectly: no join output for fresh matching data at
        // ts 0 — it would be outside the window anyway; instead check via
        // error-free completion.)
        qa.push(Message::eos()).unwrap();
        qb.push(Message::eos()).unwrap();
        assert_eq!(exec.run_slice(&Budget::unlimited()), RunOutcome::Finished);
        assert!(exec.error().is_none());
    }

    #[test]
    fn remnants_and_slot_states_extract() {
        let (mut exec, q, _handle) = di_chain();
        q.push(data(50, 1)).unwrap();
        exec.run_slice(&Budget::unlimited());
        q.push(data(60, 2)).unwrap();
        q.push(data(70, 3)).unwrap();
        exec.seed(NodeId(2), 0, data(80, 4));
        let remnants = exec.take_input_remnants();
        assert_eq!(remnants.len(), 3);
        assert_eq!(remnants[0].0, NodeId(2)); // pending first
        assert_eq!(remnants[1].0, NodeId(1));
        let states = exec.into_slot_states();
        assert_eq!(states.len(), 3);
        assert!(states.iter().all(|s| !s.closed));
    }

    /// Binary union 1 -> queue `out`, injected directly. Barriers and data
    /// forwarded by the union land in `out` in delivery order, so tests
    /// can assert exactly what crossed the slot and when.
    fn union_to_queue() -> (DomainExecutor, Arc<StreamQueue>) {
        let out = StreamQueue::unbounded("out");
        let slots = vec![slot(
            1,
            Box::new(hmts_operators::union::Union::new("u", 2)),
            vec![Target::Queue { queue: Arc::clone(&out), wake: None }],
        )];
        let exec = DomainExecutor::new(
            "d",
            slots,
            vec![],
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        (exec, out)
    }

    fn drain(q: &StreamQueue) -> Vec<Message> {
        let mut out = Vec::new();
        while let Some(m) = q.try_pop() {
            out.push(m);
        }
        out
    }

    fn barrier(id: u64) -> Message {
        Message::Punct(Punctuation::Barrier(id))
    }

    /// An operator whose only output is produced at flush time (the count
    /// of elements it saw).
    struct FlushEmitter {
        seen: i64,
    }

    impl Operator for FlushEmitter {
        fn name(&self) -> &str {
            "flush-emit"
        }

        fn input_arity(&self) -> usize {
            1
        }

        fn process(
            &mut self,
            _port: usize,
            _el: &Element,
            _out: &mut Output,
        ) -> hmts_streams::error::Result<()> {
            self.seen += 1;
            Ok(())
        }

        fn flush(&mut self, out: &mut Output) -> hmts_streams::error::Result<()> {
            out.emit(Tuple::single(self.seen), Timestamp::from_micros(1));
            Ok(())
        }
    }

    #[test]
    fn flush_output_reaches_inline_successor_before_eos() {
        // Regression: EOS used to be pushed *above* the flush outputs on
        // the LIFO stack, so an inline successor closed first and dropped
        // them.
        let (sink, handle) = CollectingSink::new("s");
        let slots = vec![
            slot(
                1,
                Box::new(FlushEmitter { seen: 0 }),
                vec![Target::Inline { node: NodeId(2), port: 0 }],
            ),
            slot(2, Box::new(sink), vec![]),
        ];
        let mut exec = DomainExecutor::new(
            "d",
            slots,
            vec![],
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        exec.inject(NodeId(1), 0, data(1, 1));
        exec.inject(NodeId(1), 0, data(2, 2));
        exec.inject(NodeId(1), 0, Message::eos());
        assert!(handle.is_done());
        let vals: Vec<i64> =
            handle.elements().iter().map(|e| e.tuple.field(0).as_int().unwrap()).collect();
        assert_eq!(vals, vec![2], "flush output delivered before the close");
    }

    #[test]
    fn newer_barrier_delivers_stale_held_input_pre_barrier() {
        let (mut exec, out) = union_to_queue();
        // Alignment for checkpoint 1 starts on port 0; the next element on
        // that port is held back.
        exec.inject(NodeId(1), 0, barrier(1));
        exec.inject(NodeId(1), 0, data(10, 1));
        assert_eq!(out.len(), 0, "element must be parked during alignment");
        // Checkpoint 1 was abandoned (its barrier never reaches port 1);
        // checkpoint 2's barrier arrives instead. The held element predates
        // that barrier, so it must be delivered *before* checkpoint 2's
        // alignment can park it again.
        exec.inject(NodeId(1), 1, barrier(2));
        exec.inject(NodeId(1), 0, data(20, 2));
        exec.inject(NodeId(1), 0, barrier(2));
        let msgs = drain(&out);
        let vals: Vec<i64> = msgs
            .iter()
            .filter_map(|m| m.as_data())
            .map(|e| e.tuple.field(0).as_int().unwrap())
            .collect();
        assert_eq!(vals, vec![10, 20], "held pre-barrier element must not be lost");
        let barriers: Vec<u64> = msgs
            .iter()
            .filter_map(|m| match m {
                Message::Punct(Punctuation::Barrier(id)) => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(barriers, vec![2], "only the completed checkpoint's barrier is forwarded");
        // The held element was processed before the new alignment snapshot
        // point: it must precede the forwarded barrier in the output.
        assert!(matches!(msgs.last(), Some(Message::Punct(Punctuation::Barrier(2)))));
    }

    #[test]
    fn late_barrier_from_aborted_attempt_does_not_restart_alignment() {
        let (mut exec, out) = union_to_queue();
        // Alignment for checkpoint 2 in progress on port 0.
        exec.inject(NodeId(1), 0, barrier(2));
        // A straggler barrier from aborted checkpoint 1 arrives on port 1:
        // it must be dropped, not restart alignment at the old id.
        exec.inject(NodeId(1), 1, barrier(1));
        // Port 1 is still pre-barrier for checkpoint 2: data flows.
        exec.inject(NodeId(1), 1, data(7, 1));
        assert_eq!(out.len(), 1, "port 1 must not be parked by the stale barrier");
        exec.inject(NodeId(1), 1, barrier(2));
        let msgs = drain(&out);
        let barriers: Vec<u64> = msgs
            .iter()
            .filter_map(|m| match m {
                Message::Punct(Punctuation::Barrier(id)) => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(barriers, vec![2], "checkpoint 2 completes exactly once; 1 is dropped");
    }

    #[test]
    fn duplicate_barrier_after_completed_alignment_is_ignored() {
        let (mut exec, out) = union_to_queue();
        exec.inject(NodeId(1), 0, barrier(3));
        exec.inject(NodeId(1), 1, barrier(3));
        assert_eq!(drain(&out).len(), 1, "alignment completed, barrier forwarded");
        // A duplicate of the finished checkpoint's barrier (straggler path)
        // must not start a fresh alignment that would park input.
        exec.inject(NodeId(1), 0, barrier(3));
        exec.inject(NodeId(1), 0, data(5, 1));
        let msgs = drain(&out);
        assert_eq!(msgs.len(), 1, "no second barrier forwarded, data not parked");
        assert!(msgs[0].as_data().is_some());
    }

    #[test]
    fn stats_are_recorded_when_enabled() {
        let stats = crate::stats::shared_node_stats();
        let mut init = slot(1, Box::new(Filter::new("f", Expr::field(0).lt(Expr::int(5)))), vec![]);
        init.stats = Some(Arc::clone(&stats));
        let mut exec = DomainExecutor::new(
            "d",
            vec![init],
            vec![],
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        for i in 0..10 {
            exec.inject(NodeId(1), 0, data(i, i as u64 * 1000));
        }
        let s = stats.read();
        assert_eq!(s.processed, 10);
        assert_eq!(s.selectivity, Some(0.5));
        assert!(s.cost.is_some());
    }

    /// Runs 1000 elements through a 20 µs busy filter passing half of them.
    fn run_costed_filter(latency: Option<Histogram>) -> SharedNodeStats {
        use hmts_operators::cost::{CostMode, Costed};
        let stats = crate::stats::shared_node_stats();
        let filter = Filter::new("f", Expr::field(0).lt(Expr::int(500)));
        let op = Costed::new(filter, CostMode::Busy(Duration::from_micros(20)));
        let mut init = slot(1, Box::new(op), vec![]);
        init.stats = Some(Arc::clone(&stats));
        init.latency = latency;
        let mut exec = DomainExecutor::new(
            "d",
            vec![init],
            vec![],
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        for i in 0..1000 {
            exec.inject(NodeId(1), 0, data(i, i as u64 * 1000));
        }
        stats
    }

    #[test]
    fn sampled_cost_timing_keeps_counts_exact() {
        // A clock read preempted by another test thread inflates one
        // sample, so the upper cost bound gets a few tries; a bias from
        // sampling would fail every try.
        let mut costs = Vec::new();
        for _ in 0..5 {
            let stats = run_costed_filter(None);
            let s = stats.read();
            assert_eq!(s.processed, 1000);
            assert_eq!(s.selectivity, Some(0.5));
            let cost = s.cost.expect("invocation 0 is timed");
            assert!(cost >= Duration::from_micros(10), "cost {cost:?}");
            costs.push(cost);
            if cost <= Duration::from_micros(30) {
                break;
            }
        }
        assert!(costs.last().is_some_and(|c| *c <= Duration::from_micros(30)), "costs {costs:?}");

        let h = Histogram::detached();
        let stats = run_costed_filter(Some(h.clone()));
        assert_eq!(h.count(), 1000);
        assert_eq!(stats.read().processed, 1000);
    }

    /// Instant on every invocation except the `COST_SAMPLE_EVERY`-th ones
    /// after the first, which busy-wait 200 µs.
    struct SlowWhenSampled(u64);
    impl Operator for SlowWhenSampled {
        fn name(&self) -> &str {
            "slow_when_sampled"
        }
        fn process(&mut self, _: usize, el: &Element, out: &mut Output) -> Result<(), StreamError> {
            let k = self.0;
            self.0 += 1;
            if k > 0 && k % COST_SAMPLE_EVERY == 0 {
                let t = Instant::now();
                while t.elapsed() < Duration::from_micros(200) {}
            }
            out.push(el.clone());
            Ok(())
        }
    }

    #[test]
    fn cost_timing_samples_every_nth_invocation() {
        // Exactly the slow invocations (and the instant first one) are
        // timed, so the cost average climbs to ~200 µs. Timing every
        // invocation would decay it toward zero over the fast ones after
        // the last slow one; timing only the first would leave it at ~0.
        let stats = crate::stats::shared_node_stats();
        let mut init = slot(1, Box::new(SlowWhenSampled(0)), vec![]);
        init.stats = Some(Arc::clone(&stats));
        let mut exec = DomainExecutor::new(
            "d",
            vec![init],
            vec![],
            StrategyKind::Fifo.build(None),
            ExecConfig::default(),
        );
        for i in 0..(COST_SAMPLE_EVERY * 40 + 8) {
            exec.inject(NodeId(1), 0, data(i as i64, i * 1000));
        }
        let cost = stats.read().cost.expect("invocation 0 is timed");
        assert!(cost >= Duration::from_micros(150), "cost {cost:?}");
    }
}
