//! Golden `/analyze` body: the capacity report over a fixed graph model
//! must keep the values of the expected document in
//! `analyze_golden.json`, which was rendered by the analyzer before the
//! graph reached it as a typed [`GraphModel`].
//!
//! The fixture has one source, a fan-out, two partitions, a 2-way
//! sharded node, fixed integer measurements and one egress histogram:
//!
//! ```text
//! src ─▶ pre ─▶ agg.split ─▶ agg[0] ─┐
//!         │              └─▶ agg[1] ─┴▶ agg.merge ─▶ out
//!         └──▶ side
//! ```
//!
//! Entries of `nodes` with equal ρ and paths from one source have no
//! defined order, so those two lists are compared as sets.

use hmts_obs::capacity::{analyze, report_json, CapacityConfig, GraphModel, ModelNode, ModelShard};
use hmts_obs::json::{self, Json};
use hmts_obs::Obs;

const EXPECTED: &str = include_str!("analyze_golden.json");

fn node(name: &str, preds: &[usize], partition: usize, cost_ns: f64, sel: f64) -> ModelNode {
    ModelNode {
        name: name.into(),
        preds: preds.to_vec(),
        partition: Some(partition),
        cost_ns: Some(cost_ns),
        selectivity: Some(sel),
        ..ModelNode::default()
    }
}

fn fixture() -> GraphModel {
    GraphModel {
        nodes: vec![
            ModelNode {
                name: "src".into(),
                source: true,
                rate: Some(1000.0),
                ..ModelNode::default()
            },
            ModelNode {
                rate: Some(1000.0),
                queue_depth: Some(7.0),
                ..node("pre", &[0], 0, 2_000.0, 0.8)
            },
            ModelNode { rate: Some(800.0), ..node("agg.split", &[1], 0, 500.0, 1.0) },
            node("side", &[1], 0, 250_000.0, 1.0),
            ModelNode { queue_depth: Some(3.0), ..node("agg[0]", &[2], 1, 400_000.0, 0.5) },
            node("agg[1]", &[2], 1, 400_000.0, 0.5),
            node("agg.merge", &[4, 5], 1, 1_000.0, 1.0),
            ModelNode { rate: Some(400.0), ..node("out", &[6], 1, 3_000.0, 1.0) },
        ],
        shards: vec![ModelShard { logical: "agg".into(), splitter: 2, replicas: vec![4, 5] }],
    }
}

/// `doc` with the arrays under `keys` sorted, so they compare as sets.
fn with_sorted(doc: &Json, keys: &[&str]) -> Json {
    let mut fields = doc.as_obj().expect("report is an object").clone();
    for key in keys {
        let mut items = fields[*key].as_arr().expect("array").to_vec();
        items.sort_by_key(|x| format!("{x:?}"));
        fields.insert(key.to_string(), Json::Arr(items));
    }
    Json::Obj(fields)
}

#[test]
fn analyze_matches_golden_report() {
    let obs = Obs::enabled();
    let h = obs.histogram("egress.out.e2e_latency_ns");
    for _ in 0..90 {
        h.record(2_000_000);
    }
    for _ in 0..10 {
        h.record(5_000_000);
    }
    let report = analyze(&fixture(), &obs.metrics_snapshot(), &CapacityConfig::default());
    let body = report_json(&report, 0);

    let got = json::parse(&body).expect("report is JSON");
    let want = json::parse(EXPECTED).expect("golden is JSON");
    let unordered = ["nodes", "paths"];
    assert_eq!(with_sorted(&got, &unordered), with_sorted(&want, &unordered), "{body}");
    // The ranking itself is fixed: ρ descends in the same steps.
    let rhos = |doc: &Json| -> Vec<f64> {
        let nodes = doc.get("nodes").and_then(|n| n.as_arr()).expect("nodes");
        nodes.iter().map(|x| x.get("rho").and_then(|v| v.as_f64()).expect("rho")).collect()
    };
    assert_eq!(rhos(&got), rhos(&want));
}
