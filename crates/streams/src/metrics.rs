//! A time-series recorder for the experiment figures (queue memory, source
//! emission timelines). The runtime estimates of `c(v)` and `d(v)` live in
//! the engine's per-node statistics cell (`hmts::stats`).

use crate::time::Timestamp;

/// An append-only series of `(time, value)` samples for the experiment
/// harness.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    name: String,
    samples: Vec<(Timestamp, f64)>,
}

impl TimeSeries {
    /// A named, empty series.
    pub fn new(name: impl Into<String>) -> TimeSeries {
        TimeSeries { name: name.into(), samples: Vec::new() }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    pub fn record(&mut self, t: Timestamp, value: f64) {
        self.samples.push((t, value));
    }

    /// All samples in insertion order.
    pub fn samples(&self) -> &[(Timestamp, f64)] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The final sample, if any.
    pub fn last(&self) -> Option<(Timestamp, f64)> {
        self.samples.last().copied()
    }

    /// The maximum sampled value, if any.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().map(|(_, v)| *v).fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(a) => a.max(v),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_series_records_and_exports() {
        let mut ts = TimeSeries::new("mem");
        ts.record(Timestamp::from_secs(1), 10.0);
        ts.record(Timestamp::from_secs(2), 30.0);
        ts.record(Timestamp::from_secs(3), 20.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.max(), Some(30.0));
        assert_eq!(ts.last(), Some((Timestamp::from_secs(3), 20.0)));
    }
}
