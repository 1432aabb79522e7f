//! The `served` workload: the Fig. 9/10 chain behind an in-process
//! `IngestServer` and `EgressServer`, driven over loopback by the
//! benchmark's own open-loop generator and read back by one subscriber.

use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use hmts::prelude::*;
use hmts_net::client::expected_tuples;
use hmts_net::wire::{hello, Frame, FrameWriter};
use hmts_net::{
    fig9_served_chain, EgressServer, IngestConfig, IngestServer, LoadConfig, SlowConsumerPolicy,
    StreamSpec, SubscriberClient,
};

use crate::inproc::Check;
use crate::rounds::RoundStats;
use crate::stats::process_cpu_s;

/// The ingest/egress stream name.
pub const STREAM: &str = "t";
/// Operator-cost compression: the expensive selection costs ≈2 µs.
pub const SPEEDUP: f64 = 1e6;
/// Values are uniform in `[1, VALUE_RANGE]`, so ≈27% become results.
pub const VALUE_RANGE: i64 = 10_000;
/// Tuples per flat-out drain round.
pub const DRAIN_TUPLES: u64 = 200_000;
/// The cheap selection passes `v ≤ CHEAP_MAX` (see `fig9_served_chain`).
pub const CHEAP_MAX: i64 = 9_000;
/// The expensive selection passes `v ≤ RESULT_MAX`.
pub const RESULT_MAX: i64 = 2_700;

/// When tuple `i` is due: `i × gap_ns` after the generator's epoch.
/// Unpaced schedules send as fast as the socket takes them but stamp the
/// same nominal due times.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Nominal inter-arrival gap (a whole number of µs keeps stamps exact).
    pub gap_ns: u64,
    /// Open loop on the schedule (`true`) or flat out (`false`).
    pub paced: bool,
}

impl Schedule {
    /// Open loop at `rate` tuples/s.
    pub fn open_loop(rate: f64) -> Schedule {
        Schedule { gap_ns: (1e9 / rate).round() as u64, paced: true }
    }

    /// Flat out, nominally stamped 1 µs apart.
    pub fn flat_out() -> Schedule {
        Schedule { gap_ns: 1_000, paced: false }
    }

    /// Due instant of tuple `i`, in ns after the epoch.
    pub fn due_ns(&self, i: usize) -> u64 {
        i as u64 * self.gap_ns
    }

    /// The stream timestamp stamped on tuple `i`: its due instant (µs).
    pub fn stamp(&self, i: usize) -> Timestamp {
        Timestamp::from_micros(self.due_ns(i) / 1_000)
    }
}

/// Sends `tuples` on `sched` starting at `epoch`, then `Eos`. Paced sends
/// wake, write every tuple due by now, and flush; each tuple's lateness
/// (flush instant − due instant, ns) is returned. Flat-out sends return
/// no lateness.
pub fn send_open_loop<W: Write>(
    writer: &mut FrameWriter<W>,
    tuples: &[Tuple],
    sched: Schedule,
    epoch: Instant,
) -> io::Result<Vec<u64>> {
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let frame = |i: usize| Frame::Data {
        ts: sched.stamp(i),
        tuple: tuples[i].clone(),
        trace: TraceTag::NONE,
    };
    let mut lateness = Vec::with_capacity(if sched.paced { tuples.len() } else { 0 });
    let mut i = 0;
    while i < tuples.len() {
        if !sched.paced {
            writer.write_frame(&frame(i))?;
            i += 1;
            continue;
        }
        let now = now_ns();
        let due = sched.due_ns(i);
        if due > now {
            thread::sleep(Duration::from_nanos(due - now));
            continue;
        }
        let first = i;
        while i < tuples.len() && sched.due_ns(i) <= now {
            writer.write_frame(&frame(i))?;
            i += 1;
        }
        writer.flush()?;
        let sent = now_ns();
        lateness.extend((first..i).map(|k| sent - sched.due_ns(k)));
    }
    writer.write_frame(&Frame::Eos)?;
    writer.flush()?;
    Ok(lateness)
}

/// The tuples a seeded open-loop client sends (`client::expected_tuples`
/// of a constant-rate `LoadConfig`): single ints uniform in
/// `[1, VALUE_RANGE]`.
pub fn served_tuples(seed: u64, count: u64) -> Vec<Tuple> {
    expected_tuples(&LoadConfig::constant(STREAM, 1e6, VALUE_RANGE, count, seed))
}

/// Reference: the sent values filtered through both selections, in
/// order (the projection keeps field 0).
pub fn served_reference(tuples: &[Tuple]) -> Vec<i64> {
    tuples
        .iter()
        .map(|t| t.field(0).as_int().expect("integer payload"))
        .filter(|&v| v <= CHEAP_MAX)
        .filter(|&v| v <= RESULT_MAX)
        .collect()
}

/// Missing, surplus, and out-of-place results against the reference.
pub fn served_check(got: &[i64], expect: &[i64]) -> Check {
    let wrong = got.iter().zip(expect).filter(|(a, b)| a != b).count();
    Check {
        expected: expect.len() as u64,
        failed: (wrong + got.len().abs_diff(expect.len())) as u64,
    }
}

struct Received {
    values: Vec<i64>,
    latencies_ns: Vec<u64>,
    end: Instant,
}

fn subscribe(
    addr: SocketAddr,
    epoch_rx: mpsc::Receiver<Instant>,
    keep_latency: bool,
) -> Result<Received, String> {
    let mut sub = SubscriberClient::connect(addr, STREAM).map_err(|e| e.to_string())?;
    let epoch = epoch_rx.recv().map_err(|e| e.to_string())?;
    let mut values = Vec::new();
    let mut latencies_ns = Vec::new();
    while let Some(msg) = sub.next_message().map_err(|e| e.to_string())? {
        let Some(e) = msg.as_data() else { continue };
        if keep_latency {
            let at = epoch.elapsed().as_nanos() as u64;
            latencies_ns.push(at.saturating_sub(e.ts.as_micros() * 1_000));
        }
        values.push(e.tuple.field(0).as_int().map_err(|e| e.to_string())?);
    }
    Ok(Received { values, latencies_ns, end: Instant::now() })
}

fn wait_until(what: &str, mut ok: impl FnMut() -> bool) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !ok() {
        if Instant::now() > deadline {
            return Err(format!("timed out waiting for {what}"));
        }
        thread::sleep(Duration::from_micros(200));
    }
    Ok(())
}

/// Runs one served round: set up servers and engine, connect the
/// subscriber and the generator, send `tuples` on `sched`, and collect
/// every result until end-of-stream.
pub fn run_served_round(
    tuples: &[Tuple],
    expect: &[i64],
    sched: Schedule,
    obs: Obs,
    workers: usize,
) -> Result<RoundStats, String> {
    let io = |e: io::Error| e.to_string();
    let t0 = Instant::now();
    let ingest = IngestServer::bind(
        "127.0.0.1:0",
        vec![StreamSpec::new(STREAM)],
        IngestConfig { obs: obs.clone(), ..IngestConfig::default() },
    )
    .map_err(io)?;
    let egress =
        EgressServer::bind("127.0.0.1:0", SlowConsumerPolicy::Block, obs.clone()).map_err(io)?;
    let source = ingest.source(STREAM).ok_or("ingest stream missing")?;
    let chain = fig9_served_chain(Box::new(source), Box::new(egress.sink("egress")), SPEEDUP);
    let plan = ExecutionPlan::hmts(chain.partitioning, StrategyKind::Fifo, workers);
    let cfg = EngineConfig { pace_sources: false, obs, ..EngineConfig::default() };
    let mut engine = Engine::with_config(chain.graph, plan, cfg).map_err(|e| e.to_string())?;
    engine.start().map_err(|e| e.to_string())?;
    let setup_s = t0.elapsed().as_secs_f64();

    let (epoch_tx, epoch_rx) = mpsc::channel();
    let egress_addr = egress.local_addr();
    let subscriber = thread::spawn(move || subscribe(egress_addr, epoch_rx, sched.paced));
    if !egress.wait_for_subscribers(1, Duration::from_secs(10)) {
        return Err("subscriber did not connect".into());
    }
    let socket = TcpStream::connect(ingest.local_addr()).map_err(io)?;
    socket.set_nodelay(true).map_err(io)?;
    let mut writer = FrameWriter::new(BufWriter::with_capacity(1 << 16, socket));
    writer.write_frame(&hello(STREAM)).map_err(io)?;
    writer.flush().map_err(io)?;
    let stats = ingest.stats();
    wait_until("the ingest connection", || {
        stats.connections_total.load(std::sync::atomic::Ordering::Relaxed) >= 1
    })?;

    let cpu0 = process_cpu_s();
    let epoch = Instant::now();
    epoch_tx.send(epoch).map_err(|e| e.to_string())?;
    let lateness_ns = send_open_loop(&mut writer, tuples, sched, epoch).map_err(io)?;
    let received = subscriber.join().map_err(|_| "subscriber panicked")??;
    let wall_s = received.end.duration_since(epoch).as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    drop(writer);

    let report = engine.wait();
    let stall_ns = stats.backpressure_stall_ns.load(std::sync::atomic::Ordering::Relaxed);
    let ingest_high_water = ingest.queue(STREAM).map_or(0, |q| q.metrics().high_water());
    let egress_sent = egress.tuples_sent();
    ingest.shutdown();
    egress.shutdown();

    let mut check = served_check(&received.values, expect);
    check.failed += (report.errors.len() + report.worker_panics.len()) as u64;
    // Results egress wrote but the subscriber never read (or vice versa).
    check.failed += egress_sent.abs_diff(received.values.len() as u64);
    Ok(RoundStats {
        setup_s,
        wall_s,
        cpu_s,
        tuples: tuples.len() as u64,
        latencies_ns: received.latencies_ns,
        lateness_ns,
        ingest: Some((stall_ns, ingest_high_water)),
        report,
        check,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmts::operators::sink::CollectingSink;

    #[test]
    fn generator_stamps_due_times_and_reports_lateness() {
        let tuples: Vec<Tuple> = (0..200).map(Tuple::single).collect();
        let sched = Schedule::open_loop(50_000.0);
        assert_eq!(sched.gap_ns, 20_000);
        let mut writer = FrameWriter::new(Vec::new());
        let t0 = Instant::now();
        let lateness = send_open_loop(&mut writer, &tuples, sched, t0).unwrap();
        // 200 tuples 20 µs apart: the last is due at 3.98 ms.
        assert!(t0.elapsed() >= Duration::from_micros(3_980));
        assert_eq!(lateness.len(), 200);
        let bytes = writer.get_mut().clone();
        let mut at = 0;
        let mut i = 0u64;
        while at < bytes.len() {
            let (frame, used) = hmts_net::wire::decode_frame(&bytes[at..]).unwrap();
            at += used;
            match frame {
                Frame::Data { ts, tuple, .. } => {
                    assert_eq!(ts, Timestamp::from_micros(20 * i), "due stamp of tuple {i}");
                    assert_eq!(tuple, Tuple::single(i as i64));
                    i += 1;
                }
                Frame::Eos => assert_eq!(i, 200),
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(i, 200);
    }

    #[test]
    fn flat_out_sends_everything_without_lateness() {
        let tuples: Vec<Tuple> = (0..50).map(Tuple::single).collect();
        let mut writer = FrameWriter::new(Vec::new());
        let lateness =
            send_open_loop(&mut writer, &tuples, Schedule::flat_out(), Instant::now()).unwrap();
        assert!(lateness.is_empty());
        assert!(!writer.get_mut().is_empty());
    }

    #[test]
    fn served_reference_matches_a_tiny_engine_run() {
        let tuples = served_tuples(3, 4_000);
        let expect = served_reference(&tuples);
        let share = expect.len() as f64 / tuples.len() as f64;
        assert!((0.24..0.30).contains(&share), "≈27% become results, got {share}");
        let items =
            tuples.iter().enumerate().map(|(i, t)| (Timestamp::from_micros(i as u64), t.clone()));
        let (sink, results) = CollectingSink::new("out");
        let chain = fig9_served_chain(
            Box::new(VecSource::new("t", items.collect())),
            Box::new(sink),
            SPEEDUP,
        );
        let plan = ExecutionPlan::hmts(chain.partitioning, StrategyKind::Fifo, 2);
        let cfg = EngineConfig { pace_sources: false, ..EngineConfig::default() };
        Engine::run_with_config(chain.graph, plan, cfg).unwrap();
        let got: Vec<i64> =
            results.elements().iter().map(|e| e.tuple.field(0).as_int().unwrap()).collect();
        assert_eq!(served_check(&got, &expect).failed, 0);
    }

    #[test]
    fn served_round_over_loopback_is_correct() {
        let tuples = served_tuples(4, 3_000);
        let expect = served_reference(&tuples);
        let r =
            run_served_round(&tuples, &expect, Schedule::open_loop(100_000.0), Obs::disabled(), 2)
                .unwrap();
        assert_eq!(r.check.failed, 0);
        assert_eq!(r.latencies_ns.len(), expect.len());
        assert_eq!(r.lateness_ns.len(), tuples.len());
    }

    #[test]
    fn served_check_counts_mismatches() {
        assert_eq!(served_check(&[1, 2, 3], &[1, 2, 3]).failed, 0);
        assert_eq!(served_check(&[1, 3], &[1, 2, 3]).failed, 2);
        assert_eq!(served_check(&[1, 2, 3, 4], &[1, 2, 3]).failed, 1);
    }
}
