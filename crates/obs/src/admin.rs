//! Live observability plane: a dependency-free HTTP/1.1 admin endpoint.
//!
//! [`AdminServer`] serves the state of one [`Obs`] handle over plain
//! `std::net::TcpListener` — no async runtime, no serde, one thread per
//! server and one short-lived thread per connection:
//!
//! * `GET /metrics` — Prometheus text exposition of the full registry.
//! * `GET /healthz` — JSON liveness summary: uptime plus the
//!   `supervisor_*` restart/panic/stall counters and the quarantine
//!   gauge. Status degrades to `"degraded"` while operators sit in
//!   quarantine.
//! * `GET /snapshot` — structured JSON runtime snapshot: per-queue
//!   depth/high-water/drops, per-operator cost and selectivity
//!   estimates, shard replicas grouped under their logical node
//!   (`"shards":{"agg":{"display":"agg[0..3]",…}}`), checkpoint id and
//!   age, engine-level gauges, and free-form status strings (plan
//!   shape, strategy mode, thread assignments) published by the host
//!   through [`StatusBoard`].
//! * `GET /analyze` — the capacity analyzer's report
//!   ([`crate::capacity`]): per-node utilization table ranked by ρ,
//!   per-partition utilization, bottleneck + headroom, predicted
//!   end-to-end p50/p99 per source→terminal path, and model-vs-measured
//!   drift. Answers `{"topology":false}` until an engine has registered
//!   its graph model on the [`Obs`] handle.
//! * `GET /trace?last=N` — the most recent `N` completed tuple spans in
//!   the same `spans.json` shape as [`export::spans_json`].
//!
//! The server holds only an [`Obs`] clone, so it observes whatever the
//! engine publishes without any direct coupling to engine types. Graph
//! structure — partitions, shard groups — comes from the typed
//! [`GraphModel`](crate::GraphModel) the engine registers
//! ([`Obs::graph_model`]); the per-entity tables of `/snapshot` list the
//! metrics the engine's collectors maintain (`queue.<name>.<field>`,
//! `node.<name>.<field>`, `checkpoint.*`, `engine.*`).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use crate::export::{self, json_escape};
use crate::registry::quantile_from_cumulative;
use crate::{MetricValue, Obs};

/// Free-form key/value strings published into `/snapshot` by the host
/// process (plan description, scheduling strategy, thread assignments —
/// anything not derivable from metrics). Cloneable; all clones share
/// one board.
#[derive(Clone, Debug, Default)]
pub struct StatusBoard(Arc<Mutex<BTreeMap<String, String>>>);

impl StatusBoard {
    /// Sets (or replaces) one status entry.
    pub fn set(&self, key: impl Into<String>, value: impl Into<String>) {
        self.0.lock().insert(key.into(), value.into());
    }

    /// Removes one status entry.
    pub fn remove(&self, key: &str) {
        self.0.lock().remove(key);
    }

    /// A point-in-time copy of all entries.
    pub fn snapshot(&self) -> BTreeMap<String, String> {
        self.0.lock().clone()
    }
}

/// A running admin HTTP server. Dropping the handle (or calling
/// [`AdminServer::shutdown`]) stops the accept loop and joins it.
#[derive(Debug)]
pub struct AdminServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl AdminServer {
    /// Binds `addr` and starts serving `obs` immediately. `addr` may use
    /// port 0 to let the OS pick; the bound address is available via
    /// [`AdminServer::addr`].
    pub fn bind(addr: &str, obs: Obs, status: StatusBoard) -> std::io::Result<AdminServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("hmts-admin".into())
            .spawn(move || accept_loop(listener, obs, status, accept_stop))?;
        Ok(AdminServer { addr: local, stop, accept_thread: Some(accept_thread) })
    }

    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and waits for it to exit. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock a parked `accept` by connecting to ourselves; the
        // handler sees the stop flag before serving.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, obs: Obs, status: StatusBoard, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        let obs = obs.clone();
        let status = status.clone();
        // One short-lived thread per request keeps a slow client from
        // blocking the accept loop; admin traffic is a handful of
        // scrapes per second at most.
        let _ = std::thread::Builder::new()
            .name("hmts-admin-conn".into())
            .spawn(move || serve_connection(stream, &obs, &status));
    }
}

fn serve_connection(stream: TcpStream, obs: &Obs, status: &StatusBoard) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() || request_line.is_empty() {
        return;
    }
    // Drain headers so well-behaved clients see a clean close.
    let mut header = String::new();
    loop {
        header.clear();
        match reader.read_line(&mut header) {
            Ok(0) | Err(_) => break,
            Ok(_) if header == "\r\n" || header == "\n" => break,
            Ok(_) if header.len() > 8192 => break,
            Ok(_) => {}
        }
    }

    let mut stream = reader.into_inner();
    let mut parts = request_line.split_whitespace();
    let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        respond(&mut stream, 405, "text/plain; charset=utf-8", "method not allowed\n");
        return;
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/metrics" => {
            if obs.is_enabled() {
                obs.run_collectors();
                let body = export::prometheus_text(&obs.metrics_snapshot());
                respond(&mut stream, 200, "text/plain; version=0.0.4; charset=utf-8", &body);
            } else {
                respond(&mut stream, 503, "text/plain; charset=utf-8", "observability disabled\n");
            }
        }
        "/healthz" => {
            // Refresh collectors so alert rules evaluate at scrape time
            // and the active-alerts section is current.
            obs.run_collectors();
            let body = healthz_json(obs);
            respond(&mut stream, 200, "application/json", &body);
        }
        "/analyze" => {
            if obs.is_enabled() {
                obs.run_collectors();
                let body = analyze_json(obs);
                respond(&mut stream, 200, "application/json", &body);
            } else {
                respond(&mut stream, 503, "text/plain; charset=utf-8", "observability disabled\n");
            }
        }
        "/snapshot" => {
            obs.run_collectors();
            let body = snapshot_json(obs, status);
            respond(&mut stream, 200, "application/json", &body);
        }
        "/trace" => {
            let last = query
                .split('&')
                .find_map(|kv| kv.strip_prefix("last="))
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(256);
            let mut spans = obs.trace_snapshot();
            if spans.len() > last {
                spans.drain(..spans.len() - last);
            }
            respond(&mut stream, 200, "application/json", &export::spans_json("admin", &spans));
        }
        _ => respond(&mut stream, 404, "text/plain; charset=utf-8", "not found\n"),
    }
}

fn respond(stream: &mut TcpStream, code: u16, content_type: &str, body: &str) {
    let reason = match code {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Ignores the read side of the metric map for lookups below.
struct Metrics(Vec<(String, MetricValue)>);

impl Metrics {
    fn counter(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find_map(|(n, v)| match v {
                MetricValue::Counter(c) if n == name => Some(*c),
                _ => None,
            })
            .unwrap_or(0)
    }

    fn gauge(&self, name: &str) -> Option<i64> {
        self.0.iter().find_map(|(n, v)| match v {
            MetricValue::Gauge(g) if n == name => Some(*g),
            _ => None,
        })
    }
}

fn healthz_json(obs: &Obs) -> String {
    if !obs.is_enabled() {
        return "{\"status\":\"ok\",\"observability\":\"disabled\"}\n".into();
    }
    let m = Metrics(obs.metrics_snapshot());
    let quarantined = m.gauge("supervisor_quarantined").unwrap_or(0);
    let status = if quarantined > 0 { "degraded" } else { "ok" };
    // Active alerts are reconstructed from the `alert.<rule>.active`
    // gauges the alert engine maintains, so /healthz needs no reference
    // to the engine itself.
    let active: Vec<String> =
        m.0.iter()
            .filter_map(|(name, value)| {
                let rule = name.strip_prefix("alert.")?.strip_suffix(".active")?;
                (value.as_f64() > 0.0).then(|| format!("\"{}\"", json_escape(rule)))
            })
            .collect();
    format!(
        "{{\"status\":\"{status}\",\"uptime_ms\":{},\"supervisor\":{{\"restarts\":{},\"panics\":{},\"stalls\":{},\"quarantined\":{quarantined}}},\"alerts\":{{\"active\":[{}]}}}}\n",
        obs.elapsed().as_millis(),
        m.counter("supervisor_restarts"),
        m.counter("supervisor_panics"),
        m.counter("supervisor_stalls"),
        active.join(","),
    )
}

/// Body of `GET /analyze`: the capacity report, or a `topology:false`
/// stub when no engine has registered its graph model yet.
fn analyze_json(obs: &Obs) -> String {
    let cfg = crate::capacity::CapacityConfig::default();
    match obs.graph_model() {
        Some(model) => {
            let report = crate::capacity::analyze(&model, &obs.metrics_snapshot(), &cfg);
            crate::capacity::report_json(&report, obs.elapsed().as_millis())
        }
        None => "{\"topology\":false}\n".into(),
    }
}

/// Groups `prefix.<name>.<field>` metrics into per-`<name>` field maps,
/// preserving dots inside `<name>` (queue names like `a->b` or
/// `ingest:s` pass through; only the final `.<field>` segment splits).
fn grouped<'a>(
    metrics: &'a [(String, MetricValue)],
    prefix: &str,
) -> BTreeMap<&'a str, BTreeMap<&'a str, f64>> {
    let mut out: BTreeMap<&str, BTreeMap<&str, f64>> = BTreeMap::new();
    for (name, value) in metrics {
        let Some(rest) = name.strip_prefix(prefix) else { continue };
        let Some((entity, field)) = rest.rsplit_once('.') else { continue };
        if entity.is_empty() || field.is_empty() {
            continue;
        }
        out.entry(entity).or_default().insert(field, value.as_f64());
    }
    out
}

fn json_group(groups: &BTreeMap<&str, BTreeMap<&str, f64>>) -> String {
    let entries: Vec<String> = groups
        .iter()
        .map(|(entity, fields)| {
            let inner: Vec<String> = fields
                .iter()
                .map(|(f, v)| format!("\"{}\":{}", json_escape(f), fmt_f64(*v)))
                .collect();
            format!("\"{}\":{{{}}}", json_escape(entity), inner.join(","))
        })
        .collect();
    format!("{{{}}}", entries.join(","))
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        if v.fract() == 0.0 && v.abs() < 9e15 {
            format!("{}", v as i64)
        } else {
            format!("{v}")
        }
    } else {
        "null".into()
    }
}

fn snapshot_json(obs: &Obs, status: &StatusBoard) -> String {
    if !obs.is_enabled() {
        return "{\"enabled\":false}\n".into();
    }
    let m = Metrics(obs.metrics_snapshot());
    let metrics = &m.0;
    let queues = grouped(metrics, "queue.");
    let nodes = grouped(metrics, "node.");
    let sources = grouped(metrics, "source.");
    // Engine-level metrics are flat (`engine.domains`), not per-entity.
    let engine: Vec<String> = metrics
        .iter()
        .filter_map(|(name, value)| {
            let field = name.strip_prefix("engine.")?;
            (!field.contains('.'))
                .then(|| format!("\"{}\":{}", json_escape(field), fmt_f64(value.as_f64())))
        })
        .collect();

    let uptime_ms = obs.elapsed().as_millis();
    let checkpoint = match m.gauge("checkpoint.last_id") {
        Some(id) => {
            let at = m.gauge("checkpoint.last_at_ms").unwrap_or(0);
            let age = (uptime_ms as i64).saturating_sub(at).max(0);
            format!("{{\"last_id\":{id},\"last_at_ms\":{at},\"age_ms\":{age}}}")
        }
        None => "null".into(),
    };

    // End-to-end latency quantiles per egress, from the histogram buckets.
    let mut latencies: Vec<String> = Vec::new();
    for (name, value) in metrics {
        let (Some(rest), MetricValue::Histogram(count, _sum, buckets)) =
            (name.strip_prefix("egress."), value)
        else {
            continue;
        };
        let Some(query) = rest.strip_suffix(".e2e_latency_ns") else { continue };
        latencies.push(format!(
            "\"{}\":{{\"count\":{count},\"p50_ns\":{},\"p99_ns\":{}}}",
            json_escape(query),
            quantile_from_cumulative(*count, buckets, 0.50),
            quantile_from_cumulative(*count, buckets, 0.99),
        ));
    }

    let status_entries: Vec<String> = status
        .snapshot()
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
        .collect();

    // Shard replicas grouped under their logical node by the graph model's
    // typed groups; `rate` sums the replicas' measured rates.
    let model = obs.graph_model().unwrap_or_default();
    let shards: Vec<String> = model
        .shards
        .iter()
        .map(|s| {
            let replicas: Vec<String> = s
                .replicas
                .iter()
                .map(|&i| format!("\"{}\"", json_escape(&model.nodes[i].name)))
                .collect();
            let rate: f64 = s.replicas.iter().filter_map(|&i| model.nodes[i].rate).sum();
            format!(
                "\"{}\":{{\"display\":\"{}[0..{}]\",\"replicas\":[{}],\"rate\":{}}}",
                json_escape(&s.logical),
                json_escape(&s.logical),
                s.replicas.len(),
                replicas.join(","),
                fmt_f64(rate),
            )
        })
        .collect();

    format!(
        "{{\"enabled\":true,\"uptime_ms\":{uptime_ms},\"queues\":{},\"operators\":{},\"shards\":{{{}}},\"sources\":{},\"engine\":{{{}}},\"checkpoint\":{},\"e2e_latency\":{{{}}},\"status\":{{{}}}}}\n",
        json_group(&queues),
        json_group(&nodes),
        shards.join(","),
        json_group(&sources),
        engine.join(","),
        checkpoint,
        latencies.join(","),
        status_entries.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{trace_id, TraceConfig};
    use crate::{GraphModel, HopKind, ModelNode, ModelShard, ObsConfig};
    use std::io::Read;

    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect admin");
        write!(stream, "GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let code: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
        let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
        (code, body)
    }

    #[test]
    fn serves_metrics_healthz_snapshot_and_trace() {
        let obs = Obs::with_config(ObsConfig {
            trace: Some(TraceConfig::default()),
            ..ObsConfig::default()
        });
        obs.counter("queue.a->b.enqueued").add(7);
        obs.gauge("queue.a->b.occupancy").set(3);
        obs.gauge("node.select.cost_ns").set(1200);
        obs.gauge("checkpoint.last_id").set(4);
        obs.gauge("checkpoint.last_at_ms").set(0);
        obs.histogram("egress.q1.e2e_latency_ns").record(5_000);
        let tracer = obs.tracer().unwrap();
        tracer.record_site(trace_id(0, 0), HopKind::NetRecv, "ingest:s", crate::NO_PARTITION);

        let status = StatusBoard::default();
        status.set("strategy", "hmts");
        let server = AdminServer::bind("127.0.0.1:0", obs.clone(), status).expect("bind");
        let addr = server.addr();

        let (code, body) = get(addr, "/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("queue_a__b_enqueued_total 7"), "{body}");
        assert!(body.contains("# TYPE"), "{body}");

        let (code, body) = get(addr, "/healthz");
        assert_eq!(code, 200);
        let health = crate::json::parse(&body).expect("healthz is JSON");
        assert_eq!(health.get("status").and_then(|s| s.as_str()), Some("ok"));

        let (code, body) = get(addr, "/snapshot");
        assert_eq!(code, 200, "{body}");
        let snap = crate::json::parse(&body).expect("snapshot is JSON");
        let queues = snap.get("queues").expect("queues");
        let q = queues.get("a->b").expect("queue entry");
        assert_eq!(q.get("occupancy").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(q.get("enqueued").and_then(|v| v.as_f64()), Some(7.0));
        let ckpt = snap.get("checkpoint").expect("checkpoint");
        assert_eq!(ckpt.get("last_id").and_then(|v| v.as_u64()), Some(4));
        assert!(ckpt.get("age_ms").and_then(|v| v.as_f64()).is_some());
        assert_eq!(
            snap.get("status").and_then(|s| s.get("strategy")).and_then(|v| v.as_str()),
            Some("hmts")
        );
        let lat = snap.get("e2e_latency").and_then(|l| l.get("q1")).expect("latency entry");
        assert_eq!(lat.get("count").and_then(|v| v.as_u64()), Some(1));

        let (code, body) = get(addr, "/trace?last=10");
        assert_eq!(code, 200);
        let (_, spans) = export::parse_spans_json(&body).expect("trace is spans JSON");
        assert_eq!(spans.len(), 1);
        assert_eq!(&*spans[0].site, "ingest:s");

        let (code, _) = get(addr, "/nope");
        assert_eq!(code, 404);
    }

    #[test]
    fn disabled_obs_reports_503_metrics_and_healthy_liveness() {
        let mut server =
            AdminServer::bind("127.0.0.1:0", Obs::disabled(), StatusBoard::default()).unwrap();
        let (code, _) = get(server.addr(), "/metrics");
        assert_eq!(code, 503);
        let (code, body) = get(server.addr(), "/healthz");
        assert_eq!(code, 200);
        assert!(body.contains("\"disabled\""), "{body}");
        let (code, body) = get(server.addr(), "/snapshot");
        assert_eq!(code, 200);
        assert!(body.contains("\"enabled\":false"), "{body}");
        server.shutdown();
        server.shutdown(); // idempotent
        assert!(
            TcpStream::connect(server.addr()).is_err() || {
                // The OS may accept briefly during teardown; a request must fail.
                get_after_shutdown(server.addr())
            }
        );
    }

    fn get_after_shutdown(addr: SocketAddr) -> bool {
        match TcpStream::connect(addr) {
            Err(_) => true,
            Ok(mut s) => {
                let _ = write!(s, "GET /healthz HTTP/1.1\r\n\r\n");
                let mut out = String::new();
                s.read_to_string(&mut out).ok();
                out.is_empty()
            }
        }
    }

    fn model_node(name: &str, preds: &[usize]) -> ModelNode {
        ModelNode { name: name.into(), preds: preds.to_vec(), ..ModelNode::default() }
    }

    #[test]
    fn analyze_reports_bottleneck_and_refreshes_collectors_per_scrape() {
        use std::sync::atomic::AtomicI64;

        let obs = Obs::enabled();
        let status = StatusBoard::default();

        // Live rate source behind a regular collector: each scrape must
        // re-run collectors, so back-to-back scrapes see advancing rates.
        let live_rate = Arc::new(AtomicI64::new(1_000));
        let rate_src = Arc::clone(&live_rate);
        let rate_gauge = obs.gauge("node.f.rate");
        obs.add_collector(move || rate_gauge.set(rate_src.load(Ordering::Relaxed)));
        let f_rate = obs.gauge("node.f.rate");
        obs.set_graph_model(move || GraphModel {
            nodes: vec![
                ModelNode { source: true, rate: Some(1_000.0), ..model_node("src", &[]) },
                ModelNode {
                    cost_ns: Some(1_000.0),
                    rate: Some(f_rate.get() as f64),
                    ..model_node("f", &[0])
                },
                // ρ = 0.8 — the bottleneck
                ModelNode {
                    cost_ns: Some(800_000.0),
                    rate: Some(1_000.0),
                    ..model_node("g", &[1])
                },
            ],
            shards: Vec::new(),
        });

        let server = AdminServer::bind("127.0.0.1:0", obs.clone(), status).expect("bind");
        let addr = server.addr();

        let (code, body) = get(addr, "/analyze");
        assert_eq!(code, 200, "{body}");
        let doc = crate::json::parse(&body).expect("analyze is JSON");
        assert_eq!(doc.get("bottleneck").and_then(|b| b.as_str()), Some("g"), "{body}");
        let nodes = doc.get("nodes").and_then(|x| x.as_arr()).expect("nodes");
        assert_eq!(nodes[0].get("name").and_then(|v| v.as_str()), Some("g"));
        assert!(nodes[0].get("rho").and_then(|v| v.as_f64()).unwrap() > 0.7, "{body}");
        assert!(doc.get("headroom").and_then(|v| v.as_f64()).unwrap() > 1.0, "{body}");
        let f_rate_1 = nodes
            .iter()
            .find(|x| x.get("name").and_then(|v| v.as_str()) == Some("f"))
            .and_then(|x| x.get("rate"))
            .and_then(|v| v.as_f64())
            .expect("f rate");
        assert!((f_rate_1 - 1_000.0).abs() < 1e-9, "{body}");

        // The "load" advances; the very next scrape must see it.
        live_rate.store(2_500, Ordering::Relaxed);
        let (code, body) = get(addr, "/analyze");
        assert_eq!(code, 200);
        let doc = crate::json::parse(&body).expect("analyze is JSON");
        let f_rate_2 = doc
            .get("nodes")
            .and_then(|x| x.as_arr())
            .and_then(|nodes| {
                nodes
                    .iter()
                    .find(|x| x.get("name").and_then(|v| v.as_str()) == Some("f"))
                    .and_then(|x| x.get("rate"))
                    .and_then(|v| v.as_f64())
            })
            .expect("f rate after advance");
        assert!(f_rate_2 > f_rate_1, "second scrape saw stale rate: {f_rate_1} then {f_rate_2}");
    }

    /// `/snapshot` groups shard replicas under the logical node and
    /// `/analyze` carries the per-shard utilization table, so a sharded
    /// station stays legible on the admin plane.
    #[test]
    fn snapshot_and_analyze_group_shard_replicas() {
        let obs = Obs::enabled();
        obs.set_graph_model(|| GraphModel {
            nodes: vec![
                ModelNode { source: true, rate: Some(1_000.0), ..model_node("src", &[]) },
                ModelNode { rate: Some(1_000.0), ..model_node("agg.split", &[0]) },
                ModelNode {
                    cost_ns: Some(400_000.0),
                    rate: Some(700.0),
                    ..model_node("agg[0]", &[1])
                },
                ModelNode {
                    cost_ns: Some(400_000.0),
                    rate: Some(300.0),
                    ..model_node("agg[1]", &[1])
                },
                model_node("agg.merge", &[2, 3]),
            ],
            shards: vec![ModelShard { logical: "agg".into(), splitter: 1, replicas: vec![2, 3] }],
        });
        let server =
            AdminServer::bind("127.0.0.1:0", obs.clone(), StatusBoard::default()).expect("bind");

        let (code, body) = get(server.addr(), "/snapshot");
        assert_eq!(code, 200, "{body}");
        let snap = crate::json::parse(&body).expect("snapshot is JSON");
        let agg = snap.get("shards").and_then(|s| s.get("agg")).expect("agg shard group");
        assert_eq!(agg.get("display").and_then(|v| v.as_str()), Some("agg[0..2]"));
        let replicas = agg.get("replicas").and_then(|r| r.as_arr()).expect("replicas");
        assert_eq!(replicas.len(), 2);
        assert_eq!(replicas[0].as_str(), Some("agg[0]"));
        assert_eq!(agg.get("rate").and_then(|v| v.as_f64()), Some(1_000.0));

        let (code, body) = get(server.addr(), "/analyze");
        assert_eq!(code, 200, "{body}");
        let doc = crate::json::parse(&body).expect("analyze is JSON");
        let shards = doc.get("shards").and_then(|s| s.as_arr()).expect("shards array");
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].get("logical").and_then(|v| v.as_str()), Some("agg"));
        let rho = shards[0].get("max_rho").and_then(|v| v.as_f64()).expect("max_rho");
        assert!((rho - 0.28).abs() < 1e-6, "hottest replica ρ 700×400µs: {rho}");
    }

    /// Shard groups come only from the model: an unsharded operator whose
    /// name happens to look like a replica (`lane[0]`) is not rolled up,
    /// even with its `node.lane[0].*` gauges on the registry.
    #[test]
    fn replica_shaped_name_without_shard_group_is_not_a_shard() {
        let obs = Obs::enabled();
        obs.gauge("node.lane[0].rate").set(500);
        obs.gauge("node.lane[0].cost_ns").set(1_000);
        obs.set_graph_model(|| GraphModel {
            nodes: vec![
                ModelNode { source: true, rate: Some(500.0), ..model_node("src", &[]) },
                ModelNode {
                    cost_ns: Some(1_000.0),
                    rate: Some(500.0),
                    ..model_node("lane[0]", &[0])
                },
            ],
            shards: Vec::new(),
        });
        let server =
            AdminServer::bind("127.0.0.1:0", obs.clone(), StatusBoard::default()).expect("bind");

        let (code, body) = get(server.addr(), "/snapshot");
        assert_eq!(code, 200, "{body}");
        let snap = crate::json::parse(&body).expect("snapshot is JSON");
        let shards = snap.get("shards").and_then(|s| s.as_obj()).expect("shards object");
        assert!(shards.is_empty(), "{body}");
        assert!(snap.get("operators").and_then(|o| o.get("lane[0]")).is_some(), "{body}");

        let (code, body) = get(server.addr(), "/analyze");
        assert_eq!(code, 200, "{body}");
        let doc = crate::json::parse(&body).expect("analyze is JSON");
        let shards = doc.get("shards").and_then(|s| s.as_arr()).expect("shards array");
        assert!(shards.is_empty(), "{body}");
        assert_eq!(doc.get("bottleneck").and_then(|b| b.as_str()), Some("lane[0]"), "{body}");
    }

    #[test]
    fn analyze_without_topology_or_obs_degrades_cleanly() {
        let server =
            AdminServer::bind("127.0.0.1:0", Obs::enabled(), StatusBoard::default()).unwrap();
        let (code, body) = get(server.addr(), "/analyze");
        assert_eq!(code, 200);
        assert!(body.contains("\"topology\":false"), "{body}");

        let server =
            AdminServer::bind("127.0.0.1:0", Obs::disabled(), StatusBoard::default()).unwrap();
        let (code, _) = get(server.addr(), "/analyze");
        assert_eq!(code, 503);
    }

    #[test]
    fn healthz_lists_active_alerts_evaluated_at_scrape_time() {
        use crate::alert::{AlertEngine, AlertRule};

        let obs = Obs::enabled();
        let depth = obs.gauge("queue.a->b.occupancy");
        let _engine = AlertEngine::install(
            &obs,
            vec![AlertRule::parse("queue.a->b.occupancy > 100").expect("rule parses")],
        );
        let server = AdminServer::bind("127.0.0.1:0", obs.clone(), StatusBoard::default()).unwrap();

        let (_, body) = get(server.addr(), "/healthz");
        let health = crate::json::parse(&body).expect("healthz is JSON");
        let active = |h: &crate::json::Json| {
            h.get("alerts")
                .and_then(|a| a.get("active"))
                .and_then(|a| a.as_arr())
                .map(|a| a.len())
                .expect("alerts.active array")
        };
        assert_eq!(active(&health), 0, "{body}");

        // Breach: the scrape itself evaluates the rule and reports it.
        depth.set(500);
        let (_, body) = get(server.addr(), "/healthz");
        let health = crate::json::parse(&body).expect("healthz is JSON");
        assert_eq!(active(&health), 1, "{body}");
        assert!(body.contains("queue.a->b.occupancy > 100"), "{body}");

        // Recovery clears it on the next scrape.
        depth.set(0);
        let (_, body) = get(server.addr(), "/healthz");
        let health = crate::json::parse(&body).expect("healthz is JSON");
        assert_eq!(active(&health), 0, "{body}");
    }

    #[test]
    fn quarantine_degrades_health() {
        let obs = Obs::enabled();
        obs.gauge("supervisor_quarantined").set(2);
        obs.counter("supervisor_panics").add(3);
        let server = AdminServer::bind("127.0.0.1:0", obs, StatusBoard::default()).unwrap();
        let (code, body) = get(server.addr(), "/healthz");
        assert_eq!(code, 200);
        let health = crate::json::parse(&body).unwrap();
        assert_eq!(health.get("status").and_then(|s| s.as_str()), Some("degraded"));
        assert_eq!(
            health.get("supervisor").and_then(|s| s.get("panics")).and_then(|v| v.as_u64()),
            Some(3)
        );
    }
}
