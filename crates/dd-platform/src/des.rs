//! Discrete-event simulation core.
//!
//! A minimal, deterministic DES kernel: a virtual clock ([`SimTime`]) and a
//! `BinaryHeap`-backed [`EventQueue`] that dispenses events in (time,
//! insertion sequence) order. Ties on time break by insertion order, so
//! simulations are bit-reproducible regardless of hash-map iteration or
//! float quirks.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulation time in seconds.
///
/// A thin wrapper over `f64` providing a total order (NaN is rejected at
/// construction), saturating arithmetic and pretty-printing.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from seconds.
    ///
    /// # Panics
    /// Panics on NaN or negative input — both indicate a simulation bug.
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime must be finite and non-negative, got {secs}"
        );
        Self(secs)
    }

    /// Seconds since simulation start.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// This time advanced by `secs`.
    pub fn after(self, secs: f64) -> Self {
        Self::from_secs(self.0 + secs)
    }

    /// The later of two times.
    pub fn max(self, other: Self) -> Self {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Duration from `earlier` to `self`, clamped at zero.
    pub fn since(self, earlier: Self) -> f64 {
        (self.0 - earlier.0).max(0.0)
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // This is the SimTime ordering wrapper the float-ord rule points
        // to: the one place a float order is materialized, safe because
        // `SimTime::from_secs` rejects NaN at construction.
        // dd-lint: allow(float-ord, hot-path-panic): construction rejects NaN, so partial_cmp is total here
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

/// The simulators' event queue: a binary heap that pops events in
/// increasing time order, breaking ties by insertion sequence (FIFO among
/// simultaneous events).
///
/// The DES executors run a workflow phase by phase, so the queue holds at
/// most one phase's completion events plus the next phase start; a plain
/// heap is as fast here as any specialised structure.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    /// Clock of the last popped event, for the debug-build monotonicity
    /// invariant (absent from release builds).
    #[cfg(debug_assertions)]
    last_popped: Option<SimTime>,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            #[cfg(debug_assertions)]
            last_popped: None,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Pops the earliest event, returning its time and payload.
    ///
    /// Debug builds verify the two DES kernel invariants on every pop:
    /// the virtual clock never runs backwards across pops, and no pending
    /// event is earlier than the one just popped (heap-order soundness).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        #[cfg(debug_assertions)]
        {
            if let Some(last) = self.last_popped {
                dd_debug_invariant!(
                    last <= entry.time,
                    "DES clock went backwards: popped {} after {last}",
                    entry.time
                );
            }
            if let Some(next) = self.heap.peek() {
                dd_debug_invariant!(
                    entry.time <= next.time,
                    "event queue disordered: popped {} while {} is pending",
                    entry.time,
                    next.time
                );
            }
            self.last_popped = Some(entry.time);
        }
        Some((entry.time, entry.event))
    }

    /// Removes all pending events and resets the tie-break sequence,
    /// keeping the heap's allocation. A cleared queue behaves exactly like
    /// a fresh one, so simulations driven through a reused queue are
    /// bit-identical to ones driven through [`EventQueue::new`].
    pub fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
        #[cfg(debug_assertions)]
        {
            self.last_popped = None;
        }
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;

    #[test]
    fn simtime_construction() {
        assert_eq!(SimTime::ZERO.as_secs(), 0.0);
        assert_eq!(SimTime::from_secs(2.5).as_secs(), 2.5);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn simtime_rejects_nan() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn simtime_rejects_negative() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    fn simtime_arithmetic() {
        let t = SimTime::from_secs(3.0);
        assert_eq!(t.after(2.0).as_secs(), 5.0);
        assert_eq!(t.since(SimTime::from_secs(1.0)), 2.0);
        assert_eq!(t.since(SimTime::from_secs(9.0)), 0.0);
        assert_eq!(t.max(SimTime::from_secs(4.0)).as_secs(), 4.0);
        assert_eq!(t.max(SimTime::from_secs(2.0)).as_secs(), 3.0);
    }

    #[test]
    fn queue_orders_by_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3.0), "c");
        q.push(SimTime::from_secs(1.0), "a");
        q.push(SimTime::from_secs(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(5.0), ());
        q.push(SimTime::from_secs(2.0), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2.0)));
    }

    #[test]
    fn cleared_queue_behaves_like_fresh() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1.0), "stale");
        q.clear();
        assert!(q.is_empty());
        // Sequence restarts at zero: FIFO order among ties matches a
        // fresh queue exactly.
        let t = SimTime::from_secs(2.0);
        q.push(t, "a");
        q.push(t, "b");
        let mut fresh = EventQueue::new();
        fresh.push(t, "a");
        fresh.push(t, "b");
        let reused: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let baseline: Vec<&str> = std::iter::from_fn(|| fresh.pop().map(|(_, e)| e)).collect();
        assert_eq!(reused, baseline);
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10.0), "late");
        q.push(SimTime::from_secs(1.0), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.push(SimTime::from_secs(5.0), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
        assert!(q.pop().is_none());
    }
}
