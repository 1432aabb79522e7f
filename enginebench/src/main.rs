//! Benchmark entry point: one workload per invocation, one JSON result line.
//!
//! ```text
//! enginebench --workload <chain_gts|chain_di|served|shard_agg> --seed <n>
//!             --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ledger (and writes its spans to `--spans`, if given). Diagnostics go
//! to stderr; the last stdout line is
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.

use std::process::exit;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use enginebench::rounds::{Workload, MIN_ROUNDS, WORKLOADS};
use enginebench::spans::Spans;
use enginebench::stats::{median, peak_rss_mib};
use enginebench::{layers, Outcome};

const USAGE: &str = "usage: enginebench --workload <chain_gts|chain_di|served|shard_agg> \
                     --seed <n> --seconds <s> --trace <0|1> [--spans <file>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<String>,
    /// Internal: run one flat-out round and print its figures.
    round: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut round = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--spans" => spans = Some(value()?),
            "--round" => round = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: if round { 0 } else { seconds.ok_or("--seconds is required")? },
        trace: if round { false } else { trace.ok_or("--trace is required")? },
        spans,
        round,
    })
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One flat-out round as the child process of an untraced run: prints
/// `round <tuples/s> <setup s> <cpu s> <tuples> <peak rss MiB> <expected> <failed>`.
fn child_round(name: &str, seed: u64) -> Result<String, String> {
    let w = Workload::new(name, seed, workers())?;
    let r = w.round(false, hmts::obs::Obs::disabled())?;
    Ok(format!(
        "round {} {} {} {} {} {} {}",
        r.throughput(),
        r.setup_s,
        r.cpu_s,
        r.tuples,
        peak_rss_mib(),
        r.check.expected,
        r.check.failed
    ))
}

/// The end-to-end metrics of one untraced run: flat-out rounds, each in
/// a fresh child process (so peak RSS is per round and no round inherits
/// another's heap or thread placement), until `budget` is spent.
fn untraced(name: &str, seed: u64, budget: Duration) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let begin = Instant::now();
    let (mut tps, mut setup, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cpu, mut tuples, mut attempted, mut failed) = (0.0, 0.0, 0, 0);
    loop {
        let out = Command::new(&exe)
            .args(["--workload", name, "--seed", &seed.to_string(), "--round"])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("round process: {e}"))?;
        let line = String::from_utf8_lossy(&out.stdout);
        let f: Vec<f64> = line
            .trim()
            .strip_prefix("round ")
            .filter(|_| out.status.success())
            .ok_or_else(|| format!("round process failed ({}): {line}", out.status))?
            .split(' ')
            .map(|v| v.parse().map_err(|e| format!("round output {v:?}: {e}")))
            .collect::<Result<_, _>>()?;
        let [t, s, c, n, m, e, x] = f[..] else {
            return Err(format!("round output has {} fields: {line}", f.len()));
        };
        tps.push(t);
        setup.push(s);
        cpu += c;
        tuples += n;
        rss.push(m);
        attempted += e as u64;
        failed += x as u64;
        let per_round = begin.elapsed() / tps.len() as u32;
        if tps.len() >= MIN_ROUNDS && begin.elapsed() + per_round > budget {
            break;
        }
    }
    eprintln!(
        "{name}: {} flat-out rounds, throughput {tps:.0?} tuples/s; {failed} of {attempted} results failed",
        tps.len()
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            ("throughput_tps", median(&tps), "tuples/s"),
            ("setup_s", median(&setup), "s"),
            ("cpu_us_per_tuple", cpu / tuples * 1e6, "us"),
            ("peak_rss_mb", median(&rss), "MiB"),
        ],
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let budget = Duration::from_secs(args.seconds.max(1));
    if args.trace {
        let mut spans = Spans::new();
        let out = layers::traced(&args.workload, args.seed, budget, workers(), &mut spans)?;
        if let Some(path) = &args.spans {
            if let Some(dir) = std::path::Path::new(path).parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{path}: {e}"))?;
            }
            std::fs::write(path, spans.to_json()).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("{}: {} spans written to {path}", args.workload, spans.len());
        }
        return Ok(out);
    }
    untraced(&args.workload, args.seed, budget)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("enginebench: {e}\n{USAGE}");
            exit(2);
        }
    };
    if args.round {
        match child_round(&args.workload, args.seed) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("enginebench: {e}");
                exit(1);
            }
        }
        return;
    }
    match run(&args).and_then(|o| o.to_json()) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("enginebench: {e}");
            exit(1);
        }
    }
}
