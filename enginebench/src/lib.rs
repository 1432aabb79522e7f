//! `enginebench`: the hmts engine's end-to-end and per-layer benchmark.
//!
//! Four workloads run against the public API of `hmts`, `hmts-net` and
//! `hmts-shard`: the Fig. 7 selection chain under GTS (`chain_gts`) and
//! under decoupled DI (`chain_di`), the served Fig. 9/10 chain behind
//! loopback ingest and egress (`served`), and a keyed aggregate sharded
//! two ways with an order-restoring merge (`shard_agg`). Every round
//! checks its outputs against a reference computed from the same seeded
//! inputs. See `METRICS.md` for what each metric means.

pub mod inproc;
pub mod layers;
pub mod rounds;
pub mod served;
pub mod spans;
pub mod stats;

/// One run's result: results checked, results failed, and the metrics as
/// `(name, value, unit)`.
pub struct Outcome {
    /// Results the references predict, summed over the run's rounds.
    pub attempted: u64,
    /// Missing, surplus or wrong results, plus engine errors and panics.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// The result line: `{"correct": .., "attempted": .., "failed": ..,
    /// "metrics": {name: {"value": .., "unit": ..}, ..}}`.
    pub fn to_json(&self) -> Result<String, String> {
        let mut fields = Vec::new();
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::Outcome;

    #[test]
    fn result_line_shape() {
        let o = Outcome { attempted: 3, failed: 0, metrics: vec![("setup_s", 0.25, "s")] };
        assert_eq!(
            o.to_json().unwrap(),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#
        );
        let bad = Outcome { attempted: 1, failed: 1, metrics: vec![("x", f64::NAN, "s")] };
        assert!(bad.to_json().is_err());
    }
}
