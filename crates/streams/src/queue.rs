//! Inter-partition stream queues.
//!
//! In this framework (following the paper, §2.4) queues are *not* placed
//! between every pair of operators: inside a partition / virtual operator,
//! operators call each other directly (direct interoperability). Queues
//! appear only at partition boundaries, where they decouple the producing
//! thread from the consuming one. They are therefore first-class objects
//! with names, metrics, backpressure policies, and a lock-free length gauge
//! that the memory monitor samples for the Fig. 9 style experiments.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::element::Message;
use crate::error::StreamError;

/// What a bounded queue does when an enqueue finds it full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Block the producer until space is available (lossless, propagates
    /// pressure upstream — the default for correctness experiments).
    Block,
    /// Reject the new element with [`StreamError::QueueFull`].
    Fail,
    /// Silently drop the new element (load shedding at the tail).
    DropNewest,
    /// Drop the oldest queued element to make room (load shedding at the
    /// head; keeps the freshest data, as monitoring applications prefer).
    DropOldest,
}

/// Monotonic counters describing a queue's lifetime activity.
#[derive(Debug, Default)]
pub struct QueueMetrics {
    enqueued: AtomicU64,
    dequeued: AtomicU64,
    dropped: AtomicU64,
    high_water: AtomicUsize,
}

impl QueueMetrics {
    /// Total messages accepted into the queue.
    pub fn enqueued(&self) -> u64 {
        self.enqueued.load(Ordering::Relaxed)
    }

    /// Total messages removed from the queue.
    pub fn dequeued(&self) -> u64 {
        self.dequeued.load(Ordering::Relaxed)
    }

    /// Total messages lost to a drop policy.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Largest observed queue length.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    fn note_len(&self, len: usize) {
        self.high_water.fetch_max(len, Ordering::Relaxed);
    }
}

struct Shared {
    buf: Mutex<VecDeque<Message>>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// A multi-producer multi-consumer FIFO of [`Message`]s connecting two
/// partitions of a query graph.
///
/// The queue is optimized for the engine's access pattern: producers push
/// under a short critical section, consumers either poll (`try_pop`, used by
/// strategy-driven schedulers) or park (`pop_blocking`, used by
/// operator-threaded scheduling). A lock-free `len` gauge lets the memory
/// monitor sample occupancy without touching the lock, and an optional
/// engine-wide gauge aggregates the number of queued *data* elements across
/// all queues (the "queue memory usage" metric of the paper's Fig. 9).
pub struct StreamQueue {
    name: String,
    /// Current capacity; `usize::MAX` means unbounded. Atomic so the bound
    /// can be lifted at runtime (see [`StreamQueue::lift_bound`]).
    capacity: AtomicUsize,
    policy: BackpressurePolicy,
    shared: Shared,
    len: AtomicUsize,
    data_len: AtomicUsize,
    closed: AtomicBool,
    metrics: QueueMetrics,
    memory_gauge: Option<Arc<AtomicUsize>>,
}

impl StreamQueue {
    /// An unbounded queue (the paper's experiments use unbounded queues and
    /// measure their occupancy).
    pub fn unbounded(name: impl Into<String>) -> Arc<StreamQueue> {
        Self::build(name.into(), None, BackpressurePolicy::Block, None)
    }

    /// A bounded queue with the given backpressure policy.
    pub fn bounded(
        name: impl Into<String>,
        capacity: usize,
        policy: BackpressurePolicy,
    ) -> Arc<StreamQueue> {
        Self::build(name.into(), Some(capacity.max(1)), policy, None)
    }

    /// Like [`StreamQueue::unbounded`], but contributing queued-data counts
    /// to a shared engine-wide memory gauge.
    pub fn unbounded_with_gauge(
        name: impl Into<String>,
        gauge: Arc<AtomicUsize>,
    ) -> Arc<StreamQueue> {
        Self::build(name.into(), None, BackpressurePolicy::Block, Some(gauge))
    }

    /// Like [`StreamQueue::bounded`], but contributing queued-data counts
    /// to a shared engine-wide memory gauge.
    pub fn bounded_with_gauge(
        name: impl Into<String>,
        capacity: usize,
        policy: BackpressurePolicy,
        gauge: Arc<AtomicUsize>,
    ) -> Arc<StreamQueue> {
        Self::build(name.into(), Some(capacity.max(1)), policy, Some(gauge))
    }

    fn build(
        name: String,
        capacity: Option<usize>,
        policy: BackpressurePolicy,
        memory_gauge: Option<Arc<AtomicUsize>>,
    ) -> Arc<StreamQueue> {
        Arc::new(StreamQueue {
            name,
            capacity: AtomicUsize::new(capacity.unwrap_or(usize::MAX)),
            policy,
            shared: Shared {
                buf: Mutex::new(VecDeque::new()),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
            },
            len: AtomicUsize::new(0),
            data_len: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            metrics: QueueMetrics::default(),
            memory_gauge,
        })
    }

    /// The queue's diagnostic name (usually `"<producer>-><consumer>"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The capacity, or `None` for unbounded.
    pub fn capacity(&self) -> Option<usize> {
        match self.capacity.load(Ordering::Relaxed) {
            usize::MAX => None,
            c => Some(c),
        }
    }

    /// Removes the capacity bound, releasing any producer blocked in a
    /// [`BackpressurePolicy::Block`] push. Used during engine teardown so
    /// in-flight elements land in the buffer (and are drained as remnants)
    /// instead of being lost.
    pub fn lift_bound(&self) {
        self.capacity.store(usize::MAX, Ordering::Relaxed);
        let _guard = self.shared.buf.lock();
        self.shared.not_full.notify_all();
        self.shared.not_empty.notify_all();
    }

    /// Lifetime counters.
    pub fn metrics(&self) -> &QueueMetrics {
        &self.metrics
    }

    /// Current number of queued messages (lock-free; may lag a concurrent
    /// push/pop by one, which is fine for scheduling and monitoring).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Current number of queued *data* elements, excluding punctuations —
    /// the quantity the paper reports as queue memory usage.
    pub fn data_len(&self) -> usize {
        self.data_len.load(Ordering::Relaxed)
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Marks the queue closed and wakes all waiting producers and consumers.
    /// Already-queued messages remain poppable; further pushes fail.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        let _guard = self.shared.buf.lock();
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
    }

    /// Whether [`StreamQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    fn on_inserted(&self, msg_is_data: bool, new_len: usize) {
        self.len.store(new_len, Ordering::Relaxed);
        if msg_is_data {
            self.data_len.fetch_add(1, Ordering::Relaxed);
            if let Some(g) = &self.memory_gauge {
                g.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.metrics.enqueued.fetch_add(1, Ordering::Relaxed);
        self.metrics.note_len(new_len);
    }

    /// `consumed` distinguishes a consumer pop (counted as dequeued) from
    /// a backpressure eviction (counted as dropped by the caller), so that
    /// `enqueued == dequeued + dropped + len` always holds.
    fn on_removed(&self, msg: &Message, new_len: usize, consumed: bool) {
        self.len.store(new_len, Ordering::Relaxed);
        if msg.as_data().is_some() {
            self.data_len.fetch_sub(1, Ordering::Relaxed);
            if let Some(g) = &self.memory_gauge {
                g.fetch_sub(1, Ordering::Relaxed);
            }
        }
        if consumed {
            self.metrics.dequeued.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Enqueues a message, applying the backpressure policy if bounded and
    /// full. Fails with [`StreamError::QueueClosed`] after `close`.
    pub fn push(&self, msg: Message) -> Result<(), StreamError> {
        self.push_with_stall(msg).map(|_| ())
    }

    /// Like [`StreamQueue::push`], but reports how long the producer was
    /// blocked by a full [`BackpressurePolicy::Block`] queue
    /// (`Duration::ZERO` on the fast path — no clock is read unless the
    /// push actually stalls). Network ingest uses this to attribute
    /// TCP-backpressure stall time without taxing the in-process hot path.
    pub fn push_with_stall(&self, msg: Message) -> Result<Duration, StreamError> {
        let is_data = msg.as_data().is_some();
        let mut stalled = Duration::ZERO;
        let mut buf = self.shared.buf.lock();
        if self.is_closed() {
            return Err(StreamError::QueueClosed);
        }
        let cap = self.capacity.load(Ordering::Relaxed);
        {
            if buf.len() >= cap {
                match self.policy {
                    BackpressurePolicy::Block => {
                        // Re-read the capacity each round: `lift_bound` may
                        // remove it while we wait.
                        let wait_start = std::time::Instant::now();
                        while buf.len() >= self.capacity.load(Ordering::Relaxed)
                            && !self.is_closed()
                        {
                            self.shared.not_full.wait(&mut buf);
                        }
                        stalled = wait_start.elapsed();
                        if self.is_closed() {
                            return Err(StreamError::QueueClosed);
                        }
                    }
                    BackpressurePolicy::Fail => return Err(StreamError::QueueFull),
                    BackpressurePolicy::DropNewest => {
                        self.metrics.dropped.fetch_add(1, Ordering::Relaxed);
                        return Ok(stalled);
                    }
                    BackpressurePolicy::DropOldest => {
                        if let Some(old) = buf.pop_front() {
                            let new_len = buf.len();
                            self.on_removed(&old, new_len, false);
                            self.metrics.dropped.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
        buf.push_back(msg);
        let new_len = buf.len();
        self.on_inserted(is_data, new_len);
        drop(buf);
        self.shared.not_empty.notify_one();
        Ok(stalled)
    }

    /// The timestamp of the oldest queued message, if any (see
    /// [`Message::ts`]). Used by timestamp-ordered scheduling strategies
    /// (FIFO) to pick the queue with the oldest pending work.
    pub fn peek_ts(&self) -> Option<crate::time::Timestamp> {
        self.shared.buf.lock().front().map(|m| m.ts())
    }

    /// Removes the oldest message without blocking.
    pub fn try_pop(&self) -> Option<Message> {
        let mut buf = self.shared.buf.lock();
        let msg = buf.pop_front()?;
        let new_len = buf.len();
        self.on_removed(&msg, new_len, true);
        drop(buf);
        self.shared.not_full.notify_one();
        Some(msg)
    }

    /// Blocks until a message is available or the queue is closed and empty
    /// (in which case `None` is returned, signalling the consumer to stop).
    pub fn pop_blocking(&self) -> Option<Message> {
        let mut buf = self.shared.buf.lock();
        loop {
            if let Some(msg) = buf.pop_front() {
                let new_len = buf.len();
                self.on_removed(&msg, new_len, true);
                drop(buf);
                self.shared.not_full.notify_one();
                return Some(msg);
            }
            if self.is_closed() {
                return None;
            }
            self.shared.not_empty.wait(&mut buf);
        }
    }

    /// Like [`StreamQueue::pop_blocking`] but gives up after `timeout`,
    /// returning `None` on both timeout and closed-and-empty.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<Message> {
        let deadline = std::time::Instant::now() + timeout;
        let mut buf = self.shared.buf.lock();
        loop {
            if let Some(msg) = buf.pop_front() {
                let new_len = buf.len();
                self.on_removed(&msg, new_len, true);
                drop(buf);
                self.shared.not_full.notify_one();
                return Some(msg);
            }
            if self.is_closed() {
                return None;
            }
            if self.shared.not_empty.wait_until(&mut buf, deadline).timed_out() {
                return None;
            }
        }
    }

    /// Removes and returns all queued messages at once. Used when a queue is
    /// removed at runtime: the paper (§5.1.3) requires that "all remaining
    /// elements in the queue must be entirely processed before" removal, and
    /// the engine replays the drained messages through the merged partition.
    pub fn drain(&self) -> Vec<Message> {
        let mut buf = self.shared.buf.lock();
        let msgs: Vec<Message> = buf.drain(..).collect();
        self.len.store(0, Ordering::Relaxed);
        let data = msgs.iter().filter(|m| m.as_data().is_some()).count();
        self.data_len.fetch_sub(data, Ordering::Relaxed);
        if let Some(g) = &self.memory_gauge {
            g.fetch_sub(data, Ordering::Relaxed);
        }
        // Drained remnants leave the queue to be replayed downstream, so
        // they count as dequeued for metric conservation.
        self.metrics.dequeued.fetch_add(msgs.len() as u64, Ordering::Relaxed);
        drop(buf);
        self.shared.not_full.notify_all();
        msgs
    }
}

impl fmt::Debug for StreamQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamQueue")
            .field("name", &self.name)
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("closed", &self.is_closed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;
    use crate::tuple::Tuple;
    use std::thread;

    fn data(v: i64) -> Message {
        Message::data(Tuple::single(v), Timestamp::from_micros(v as u64))
    }

    #[test]
    fn peek_ts_reads_head_without_removing() {
        let q = StreamQueue::unbounded("q");
        assert_eq!(q.peek_ts(), None);
        q.push(data(7)).unwrap();
        q.push(data(9)).unwrap();
        assert_eq!(q.peek_ts(), Some(Timestamp::from_micros(7)));
        assert_eq!(q.len(), 2);
        q.try_pop().unwrap();
        assert_eq!(q.peek_ts(), Some(Timestamp::from_micros(9)));
    }

    #[test]
    fn fifo_order() {
        let q = StreamQueue::unbounded("q");
        for i in 0..5 {
            q.push(data(i)).unwrap();
        }
        for i in 0..5 {
            let m = q.try_pop().unwrap();
            assert_eq!(m.as_data().unwrap().tuple.field(0).as_int().unwrap(), i);
        }
        assert!(q.try_pop().is_none());
    }

    #[test]
    fn len_and_data_len_exclude_punctuations() {
        let q = StreamQueue::unbounded("q");
        q.push(data(1)).unwrap();
        q.push(Message::eos()).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.data_len(), 1);
        q.try_pop().unwrap();
        assert_eq!(q.data_len(), 0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn metrics_track_activity() {
        let q = StreamQueue::unbounded("q");
        q.push(data(1)).unwrap();
        q.push(data(2)).unwrap();
        q.try_pop().unwrap();
        assert_eq!(q.metrics().enqueued(), 2);
        assert_eq!(q.metrics().dequeued(), 1);
        assert_eq!(q.metrics().high_water(), 2);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn dequeued_counts_every_pop_variant() {
        let q = StreamQueue::unbounded("q");
        for i in 0..4 {
            q.push(data(i)).unwrap();
        }
        q.try_pop().unwrap();
        q.pop_blocking().unwrap();
        q.pop_timeout(Duration::from_millis(10)).unwrap();
        assert_eq!(q.metrics().dequeued(), 3);
        // Drained remnants also count as dequeued.
        assert_eq!(q.drain().len(), 1);
        assert_eq!(q.metrics().dequeued(), 4);
        assert_eq!(q.metrics().enqueued(), 4);
    }

    #[test]
    fn metrics_conservation_under_drop_oldest() {
        let q = StreamQueue::bounded("q", 2, BackpressurePolicy::DropOldest);
        for i in 0..5 {
            q.push(data(i)).unwrap();
        }
        q.try_pop().unwrap();
        let m = q.metrics();
        // Evictions are drops, not dequeues; everything pushed is accounted
        // for exactly once.
        assert_eq!(m.enqueued(), 5);
        assert_eq!(m.dropped(), 3);
        assert_eq!(m.dequeued(), 1);
        assert_eq!(m.enqueued(), m.dequeued() + m.dropped() + q.len() as u64);
    }

    #[test]
    fn high_water_tracks_peak_not_current() {
        let q = StreamQueue::unbounded("q");
        for i in 0..6 {
            q.push(data(i)).unwrap();
        }
        while q.try_pop().is_some() {}
        assert_eq!(q.len(), 0);
        assert_eq!(q.metrics().high_water(), 6);
    }

    #[test]
    fn close_rejects_push_and_unblocks_pop() {
        let q = StreamQueue::unbounded("q");
        q.push(data(1)).unwrap();
        q.close();
        assert_eq!(q.push(data(2)), Err(StreamError::QueueClosed));
        // Remaining element still poppable, then None.
        assert!(q.pop_blocking().is_some());
        assert!(q.pop_blocking().is_none());
    }

    #[test]
    fn pop_blocking_wakes_on_push() {
        let q = StreamQueue::unbounded("q");
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.pop_blocking());
        thread::sleep(Duration::from_millis(20));
        q.push(data(9)).unwrap();
        let got = h.join().unwrap().unwrap();
        assert_eq!(got.as_data().unwrap().tuple.field(0).as_int().unwrap(), 9);
    }

    #[test]
    fn pop_timeout_times_out() {
        let q = StreamQueue::unbounded("q");
        assert!(q.pop_timeout(Duration::from_millis(10)).is_none());
        q.push(data(1)).unwrap();
        assert!(q.pop_timeout(Duration::from_millis(10)).is_some());
    }

    #[test]
    fn bounded_fail_policy() {
        let q = StreamQueue::bounded("q", 2, BackpressurePolicy::Fail);
        q.push(data(1)).unwrap();
        q.push(data(2)).unwrap();
        assert_eq!(q.push(data(3)), Err(StreamError::QueueFull));
        q.try_pop().unwrap();
        q.push(data(3)).unwrap();
    }

    #[test]
    fn bounded_drop_newest() {
        let q = StreamQueue::bounded("q", 1, BackpressurePolicy::DropNewest);
        q.push(data(1)).unwrap();
        q.push(data(2)).unwrap(); // dropped
        assert_eq!(q.metrics().dropped(), 1);
        let m = q.try_pop().unwrap();
        assert_eq!(m.as_data().unwrap().tuple.field(0).as_int().unwrap(), 1);
        assert!(q.try_pop().is_none());
    }

    #[test]
    fn bounded_drop_oldest() {
        let q = StreamQueue::bounded("q", 1, BackpressurePolicy::DropOldest);
        q.push(data(1)).unwrap();
        q.push(data(2)).unwrap(); // evicts 1
        assert_eq!(q.metrics().dropped(), 1);
        let m = q.try_pop().unwrap();
        assert_eq!(m.as_data().unwrap().tuple.field(0).as_int().unwrap(), 2);
        assert_eq!(q.data_len(), 0);
    }

    #[test]
    fn bounded_block_policy_blocks_and_resumes() {
        let q = StreamQueue::bounded("q", 1, BackpressurePolicy::Block);
        q.push(data(1)).unwrap();
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.push(data(2)));
        thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 1); // producer blocked
        q.try_pop().unwrap();
        h.join().unwrap().unwrap();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn blocked_producer_unblocks_on_close() {
        let q = StreamQueue::bounded("q", 1, BackpressurePolicy::Block);
        q.push(data(1)).unwrap();
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.push(data(2)));
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), Err(StreamError::QueueClosed));
    }

    #[test]
    fn drain_empties_and_updates_gauge() {
        let gauge = Arc::new(AtomicUsize::new(0));
        let q = StreamQueue::unbounded_with_gauge("q", Arc::clone(&gauge));
        q.push(data(1)).unwrap();
        q.push(data(2)).unwrap();
        q.push(Message::eos()).unwrap();
        assert_eq!(gauge.load(Ordering::Relaxed), 2);
        let msgs = q.drain();
        assert_eq!(msgs.len(), 3);
        assert_eq!(q.len(), 0);
        assert_eq!(q.data_len(), 0);
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn shared_gauge_aggregates_across_queues() {
        let gauge = Arc::new(AtomicUsize::new(0));
        let a = StreamQueue::unbounded_with_gauge("a", Arc::clone(&gauge));
        let b = StreamQueue::unbounded_with_gauge("b", Arc::clone(&gauge));
        a.push(data(1)).unwrap();
        b.push(data(2)).unwrap();
        b.push(data(3)).unwrap();
        assert_eq!(gauge.load(Ordering::Relaxed), 3);
        a.try_pop().unwrap();
        assert_eq!(gauge.load(Ordering::Relaxed), 2);
    }

    /// Moves `N` messages through a `bounded(1, Block)` queue from one
    /// producer to a consumer calling `pop`, so both sides park often.
    /// Fails, rather than hangs, on a lost wake-up.
    fn parked_handoff_in_order(pop: fn(&StreamQueue) -> Option<Message>) {
        const N: i64 = 100_000;
        let q = StreamQueue::bounded("q", 1, BackpressurePolicy::Block);
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || (0..N).for_each(|i| q.push(data(i)).unwrap()))
        };
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for i in 0..N {
                    let m = pop(&q).expect("queue delivers before the timeout");
                    assert_eq!(m.as_data().unwrap().tuple.field(0).as_int().unwrap(), i);
                }
                done_tx.send(()).unwrap();
            })
        };
        done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("finished within 60 s (else: lost wake-up)");
        producer.join().unwrap();
        consumer.join().unwrap();
        assert_eq!(q.metrics().enqueued(), N as u64);
        assert_eq!(q.metrics().dequeued(), N as u64);
    }

    #[test]
    fn bounded_one_slot_handoff_with_pop_blocking() {
        parked_handoff_in_order(|q| q.pop_blocking());
    }

    #[test]
    fn bounded_one_slot_handoff_with_pop_timeout() {
        parked_handoff_in_order(|q| q.pop_timeout(Duration::from_secs(30)));
    }

    #[test]
    fn concurrent_producers_consumers_lose_nothing() {
        let q = StreamQueue::unbounded("q");
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..250 {
                        q.push(data(p * 1000 + i)).unwrap();
                    }
                })
            })
            .collect();
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut got = 0;
                while got < 1000 {
                    if q.pop_blocking().is_some() {
                        got += 1;
                    }
                }
                got
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(consumer.join().unwrap(), 1000);
        assert_eq!(q.metrics().enqueued(), 1000);
        assert_eq!(q.len(), 0);
    }
}
