//! Background sampler: periodically snapshots the registry into a time
//! series.
//!
//! Engine components register *collectors* — closures that refresh gauges
//! (queue occupancy, per-node cost/selectivity) from live state. Each tick
//! runs every collector and then records the registry snapshot with a
//! relative timestamp, producing an exportable series.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::capacity::GraphModel;
use crate::registry::{MetricValue, MetricsRegistry};

/// One sampler tick: elapsed time and every metric's value at that point.
#[derive(Clone, Debug)]
pub struct SamplePoint {
    pub elapsed: Duration,
    pub metrics: Vec<(String, MetricValue)>,
}

/// Shared sampling state: collectors, the graph-model provider, and the
/// accumulated series.
#[derive(Default)]
pub struct SampleStore {
    collectors: Mutex<Vec<Box<dyn Fn() + Send + Sync>>>,
    /// Collectors that survive [`clear_collectors`](Self::clear_collectors)
    /// — analyzers and alert evaluators outlive any one engine wiring,
    /// unlike the engine's own queue/node collectors which capture state
    /// that a plan switch tears down.
    pinned: Mutex<Vec<Box<dyn Fn() + Send + Sync>>>,
    /// Builds the engine's current [`GraphModel`] on demand
    /// ([`crate::Obs::set_graph_model`]).
    pub(crate) model: Mutex<Option<Arc<dyn Fn() -> GraphModel + Send + Sync>>>,
    series: Mutex<Vec<SamplePoint>>,
}

impl std::fmt::Debug for SampleStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SampleStore")
            .field("collectors", &self.collectors.lock().len())
            .field("pinned", &self.pinned.lock().len())
            .field("model", &self.model.lock().is_some())
            .field("samples", &self.series.lock().len())
            .finish()
    }
}

impl SampleStore {
    /// Registers a closure run before every sample to refresh gauges.
    pub fn add_collector(&self, f: impl Fn() + Send + Sync + 'static) {
        self.collectors.lock().push(Box::new(f));
    }

    /// Registers a collector that [`clear_collectors`](Self::clear_collectors)
    /// leaves intact. Pinned collectors run *after* the regular ones on
    /// every pass, so derived-metric consumers (the capacity analyzer,
    /// alert rules) always see gauges the regular collectors just wrote.
    pub fn add_pinned_collector(&self, f: impl Fn() + Send + Sync + 'static) {
        self.pinned.lock().push(Box::new(f));
    }

    /// Drops all regular collectors (e.g. when the engine wiring they
    /// capture is torn down). Pinned collectors are kept.
    pub fn clear_collectors(&self) {
        self.collectors.lock().clear();
    }

    /// Runs every registered collector without recording a sample — used
    /// by on-demand readers (the admin endpoint) that want fresh gauges
    /// but must not grow the series on every scrape. Regular collectors
    /// run first, then pinned ones.
    pub fn run_collectors(&self) {
        for c in self.collectors.lock().iter() {
            c();
        }
        for c in self.pinned.lock().iter() {
            c();
        }
    }

    /// Runs collectors and appends one snapshot of `registry`.
    pub fn sample_now(&self, registry: &MetricsRegistry, elapsed: Duration) {
        self.run_collectors();
        let point = SamplePoint { elapsed, metrics: registry.snapshot() };
        self.series.lock().push(point);
    }

    /// The accumulated series, oldest first.
    pub fn series(&self) -> Vec<SamplePoint> {
        self.series.lock().clone()
    }

    pub fn len(&self) -> usize {
        self.series.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.series.lock().is_empty()
    }
}

/// Handle to the background sampling thread; sampling stops when this is
/// dropped or [`Sampler::stop`] is called.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Spawns a thread sampling `store`/`registry` every `interval`.
    ///
    /// `start` anchors the relative timestamps (pass the observability
    /// epoch so samples align with journal timestamps).
    pub fn start(
        registry: Arc<MetricsRegistry>,
        store: Arc<SampleStore>,
        start: Instant,
        interval: Duration,
    ) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let interval = interval.max(Duration::from_millis(1));
        let handle = std::thread::Builder::new()
            .name("obs-sampler".into())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    store.sample_now(&registry, start.elapsed());
                    std::thread::sleep(interval);
                }
            })
            .expect("spawn obs-sampler");
        Sampler { stop, handle: Some(handle) }
    }

    /// Stops the sampling thread and waits for it to exit.
    pub fn stop(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collectors_refresh_gauges_before_sampling() {
        let registry = MetricsRegistry::new();
        let gauge = registry.gauge("depth");
        let store = SampleStore::default();
        let source = Arc::new(std::sync::atomic::AtomicI64::new(42));
        let src = Arc::clone(&source);
        store.add_collector(move || gauge.set(src.load(Ordering::Relaxed)));

        store.sample_now(&registry, Duration::from_millis(1));
        source.store(7, Ordering::Relaxed);
        store.sample_now(&registry, Duration::from_millis(2));

        let series = store.series();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].metrics[0].1, MetricValue::Gauge(42));
        assert_eq!(series[1].metrics[0].1, MetricValue::Gauge(7));
        assert!(series[0].elapsed < series[1].elapsed);
    }

    #[test]
    fn pinned_collectors_survive_clear_and_run_after_regular() {
        let registry = MetricsRegistry::new();
        let gauge = registry.gauge("raw");
        let derived = registry.gauge("derived");
        let store = SampleStore::default();
        let g = gauge.clone();
        store.add_collector(move || g.set(10));
        let r = registry.gauge("raw");
        let d = derived.clone();
        // Pinned collector reads what the regular collector just wrote.
        store.add_pinned_collector(move || d.set(r.get() * 2));

        store.run_collectors();
        assert_eq!(derived.get(), 20, "pinned ran after regular");

        gauge.set(0);
        store.clear_collectors();
        store.run_collectors();
        assert_eq!(gauge.get(), 0, "regular collector was cleared");
        assert_eq!(derived.get(), 0, "pinned collector still runs");
    }

    #[test]
    fn background_sampler_accumulates_and_stops() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter("ticks").inc();
        let store = Arc::new(SampleStore::default());
        let sampler = Sampler::start(
            Arc::clone(&registry),
            Arc::clone(&store),
            Instant::now(),
            Duration::from_millis(2),
        );
        std::thread::sleep(Duration::from_millis(30));
        sampler.stop();
        let n = store.len();
        assert!(n >= 2, "expected >= 2 samples, got {n}");
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(store.len(), n, "sampling continued after stop");
    }
}
