//! The acceptance scenario for `hmts-state` over the network: the serving
//! engine is killed mid-stream after at least one aligned checkpoint,
//! restarted through [`Engine::recover`], and the ingest server — seeded
//! with the checkpointed per-stream offsets — directs the resuming client
//! to replay exactly the suffix the restored engine has not seen. The
//! subscriber's combined output, dedup'd by sequence, is byte-identical
//! to a fault-free run.

use std::io::{self, Write};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use hmts::prelude::*;
use hmts_net::{
    send_with_resume, EgressServer, IngestConfig, IngestServer, ResumeConfig, SlowConsumerPolicy,
    StreamSpec, SubscriberClient,
};

const N: u64 = 5_000;
const STREAM: &str = "bursty";

/// Element `i` carries sequence number `i` — the dedup key downstream and
/// the replay cursor on the wire.
fn seq_tuples() -> Vec<(Timestamp, Tuple)> {
    (0..N).map(|i| (Timestamp::from_micros(i), Tuple::single(i as i64))).collect()
}

/// ingest -> windowed dedup (stateful) -> network egress.
fn dedup_chain(ingest: &IngestServer, egress: &EgressServer) -> QueryGraph {
    let mut b = GraphBuilder::new();
    let src = b.source(ingest.source(STREAM).expect("stream registered"));
    let dd = b.op_after(Dedup::new("dedup", Expr::field(0), Duration::from_secs(3600)), src);
    b.op_after(egress.sink("egress"), dd);
    b.build().expect("valid graph")
}

/// Drains a subscriber into the sequence numbers it received, stopping on
/// end-of-stream *or* an abruptly closed connection (the killed run ends
/// without an `Eos`).
fn drain(mut sub: SubscriberClient) -> Vec<i64> {
    let mut out = Vec::new();
    while let Ok(Some(m)) = sub.next_message() {
        if let Some(e) = m.as_data() {
            out.push(e.tuple.field(0).as_int().unwrap());
        }
    }
    out
}

/// Paces the client by sleeping once per written frame, so the phase-1
/// stream outlives several checkpoint intervals.
struct PacedWriter<W> {
    inner: W,
    gap: Duration,
}

impl<W: Write> Write for PacedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        std::thread::sleep(self.gap);
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

fn send_all(addr: SocketAddr, gap: Duration) -> Result<hmts_net::ResumeReport, hmts_net::NetError> {
    let tuples = seq_tuples();
    send_with_resume(
        addr,
        STREAM,
        &tuples,
        &ResumeConfig { base_backoff: Duration::from_millis(2), ..ResumeConfig::default() },
        move |sock| {
            if gap.is_zero() {
                Box::new(sock) as Box<dyn Write + Send>
            } else {
                Box::new(PacedWriter { inner: sock, gap })
            }
        },
    )
}

/// The uninterrupted reference run: every sequence number exactly once.
fn fault_free_output() -> Vec<i64> {
    let ingest = IngestServer::bind(
        "127.0.0.1:0",
        vec![StreamSpec::new(STREAM)],
        IngestConfig { queue_capacity: None, ..IngestConfig::default() },
    )
    .unwrap();
    let egress =
        EgressServer::bind("127.0.0.1:0", SlowConsumerPolicy::Block, Obs::disabled()).unwrap();
    let sub = SubscriberClient::connect(egress.local_addr(), "results").unwrap();
    assert!(egress.wait_for_subscribers(1, Duration::from_secs(5)));
    let sub = std::thread::spawn(move || drain(sub));

    let graph = dedup_chain(&ingest, &egress);
    let plan = ExecutionPlan::di_decoupled(&Topology::of(&graph));
    let cfg = EngineConfig { pace_sources: false, ..EngineConfig::default() };
    let mut engine = Engine::with_config(graph, plan, cfg).unwrap();
    engine.start().unwrap();
    send_all(ingest.local_addr(), Duration::ZERO).expect("fault-free send");
    let report = engine.wait();
    assert!(report.errors.is_empty(), "baseline errors: {:?}", report.errors);
    ingest.shutdown();
    egress.shutdown();
    drop(egress);
    sub.join().unwrap()
}

/// Kill mid-stream after ≥1 checkpoint, recover, resume from the
/// checkpointed cut, and compare against the fault-free run.
#[test]
fn killed_engine_recovers_and_clients_resume_exactly_once() {
    let dir = std::env::temp_dir().join(format!("hmts-net-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let baseline = fault_free_output();
    assert_eq!(baseline, (0..N as i64).collect::<Vec<_>>(), "baseline is every sequence once");

    // ---- Phase 1: serve with checkpointing, kill after one completes. ----
    let obs = Obs::enabled();
    let ingest = IngestServer::bind(
        "127.0.0.1:0",
        vec![StreamSpec::new(STREAM)],
        IngestConfig {
            queue_capacity: None,
            obs: obs.clone(),
            resume: true,
            reconnect_window: Duration::from_secs(30),
            ..IngestConfig::default()
        },
    )
    .unwrap();
    let egress = EgressServer::bind("127.0.0.1:0", SlowConsumerPolicy::Block, obs.clone()).unwrap();
    let sub1 = SubscriberClient::connect(egress.local_addr(), "results").unwrap();
    assert!(egress.wait_for_subscribers(1, Duration::from_secs(5)));
    let sub1 = std::thread::spawn(move || drain(sub1));

    let graph = dedup_chain(&ingest, &egress);
    let plan = ExecutionPlan::di_decoupled(&Topology::of(&graph));
    let mut ckcfg = CheckpointConfig::new(&dir).with_interval(Duration::from_millis(10));
    // A short alignment timeout keeps the post-kill join prompt when the
    // abort lands mid-checkpoint and the quorum can no longer form.
    ckcfg.align_timeout = Duration::from_millis(500);
    let cfg = EngineConfig {
        pace_sources: false,
        obs: obs.clone(),
        checkpoint: Some(ckcfg),
        ..EngineConfig::default()
    };
    let mut engine = Engine::with_config(graph, plan, cfg).unwrap();
    engine.start().unwrap();

    // ~100 µs per frame: the full stream takes ~500 ms, dozens of
    // checkpoint intervals.
    let addr = ingest.local_addr();
    let client = std::thread::spawn(move || send_all(addr, Duration::from_micros(100)));

    let store = CheckpointStore::new(&dir, 3);
    let deadline = Instant::now() + Duration::from_secs(20);
    // Wait for a checkpoint whose cut includes at least one ingested
    // tuple: the first one can complete before the client's first frame.
    let cut_offset =
        || store.load_latest().ok().flatten().and_then(|ck| ck.source_offset(STREAM)).unwrap_or(0);
    while cut_offset() < 1 {
        assert!(Instant::now() < deadline, "no completed checkpoint within 20 s");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The "kill": no draining, no Eos, state on disk only. `abort`
    // consumes the engine, dropping the graph and its egress sink.
    engine.abort();

    ingest.shutdown();
    egress.shutdown();
    // The client either finished into the dead queue or errored out of its
    // retries; both terminate.
    let _ = client.join().unwrap();
    // With the engine gone, dropping the servers closes the subscriber
    // socket (no Eos was ever broadcast), ending the phase-1 drain.
    drop(ingest);
    drop(egress);
    let phase1 = sub1.join().unwrap();

    let kinds: Vec<&str> = obs.journal_snapshot().iter().map(|r| r.event.kind()).collect();
    assert!(kinds.contains(&"checkpoint-complete"), "kinds: {kinds:?}");
    assert!(kinds.contains(&"operator-snapshot"), "kinds: {kinds:?}");

    // The checkpoint captured a consistent cut: dedup blob + the matching
    // ingest offset, strictly mid-stream.
    let ck = store.load_latest().expect("manifest readable").expect("a completed checkpoint");
    let offset = ck.source_offset(STREAM).expect("ingest offset recorded");
    assert!((1..N).contains(&offset), "cut strictly mid-stream: {offset}");
    assert!(ck.operator_blob("dedup").is_some(), "dedup state captured");

    // The egress saw at least the checkpointed prefix (the sink aligned on
    // the barrier *after* broadcasting everything before it), in order.
    assert!(
        phase1.len() as u64 >= offset,
        "egress holds the checkpointed prefix: {} < {offset}",
        phase1.len()
    );
    assert_eq!(phase1, (0..phase1.len() as i64).collect::<Vec<_>>(), "phase-1 prefix in order");

    // ---- Phase 2: recover on fresh ports from the same checkpoint dir. ----
    let ingest2 = IngestServer::bind(
        "127.0.0.1:0",
        vec![StreamSpec::new(STREAM)],
        IngestConfig {
            queue_capacity: None,
            resume: true,
            initial_offsets: ck.sources.clone(),
            ..IngestConfig::default()
        },
    )
    .unwrap();
    let egress2 =
        EgressServer::bind("127.0.0.1:0", SlowConsumerPolicy::Block, Obs::disabled()).unwrap();
    let sub2 = SubscriberClient::connect(egress2.local_addr(), "results").unwrap();
    assert!(egress2.wait_for_subscribers(1, Duration::from_secs(5)));
    let sub2 = std::thread::spawn(move || drain(sub2));

    let graph2 = dedup_chain(&ingest2, &egress2);
    let plan2 = ExecutionPlan::di_decoupled(&Topology::of(&graph2));
    let cfg2 = EngineConfig { pace_sources: false, ..EngineConfig::default() };
    let (mut engine2, loaded) =
        Engine::recover(graph2, plan2, cfg2, &dir).expect("recover from checkpoint dir");
    assert_eq!(loaded.expect("checkpoint loaded").id, ck.id);
    engine2.start().expect("recovered engine starts");

    // The client replays the FULL stream; the resume handshake answers
    // with the checkpointed offset, so only the unseen suffix goes over
    // the wire.
    let report = send_all(ingest2.local_addr(), Duration::ZERO).expect("resumed send");
    assert_eq!(report.connects, 1, "one clean connection after restart");
    assert_eq!(
        report.resume_points,
        vec![offset],
        "server directed replay from the checkpointed offset"
    );

    let report2 = engine2.wait();
    assert!(report2.errors.is_empty(), "recovered run errors: {:?}", report2.errors);
    ingest2.shutdown();
    egress2.shutdown();
    let phase2 = sub2.join().unwrap();

    // The restored dedup state suppresses nothing it should not: the
    // recovered run emits exactly the suffix past the cut.
    assert_eq!(
        phase2,
        (offset as i64..N as i64).collect::<Vec<_>>(),
        "recovered run emits exactly the post-checkpoint suffix"
    );

    // Acceptance: both phases together, dedup'd by sequence, are
    // byte-identical to the fault-free run.
    let mut combined: Vec<i64> = phase1.iter().chain(phase2.iter()).copied().collect();
    combined.sort_unstable();
    combined.dedup();
    assert_eq!(combined, baseline, "exactly-once across the restart");

    let _ = std::fs::remove_dir_all(&dir);
}
