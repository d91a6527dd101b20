//! Discrete-event simulation core.
//!
//! A minimal, deterministic DES kernel: a virtual clock ([`SimTime`]) and a
//! priority [`EventQueue`] that dispenses events in (time, insertion
//! sequence) order. Ties on time break by insertion order, so simulations
//! are bit-reproducible regardless of hash-map iteration or float quirks.

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

/// The event queue used by the simulators: the radix calendar queue by
/// default, or the reference binary heap when the `queue-oracle` feature
/// is enabled. Both dispense events in (time, insertion sequence) order,
/// and the equivalence test suite byte-compares full simulation outputs
/// across the two backings.
#[cfg(not(feature = "queue-oracle"))]
pub type EventQueue<E> = RadixEventQueue<E>;

/// See [`EventQueue`]: `queue-oracle` builds run on the reference heap.
#[cfg(feature = "queue-oracle")]
pub type EventQueue<E> = BinaryHeapEventQueue<E>;

/// The reference event queue: pops events in increasing time order,
/// breaking ties by insertion sequence (FIFO among simultaneous events).
///
/// This is the original `BinaryHeap` implementation, kept as the oracle
/// the optimized [`RadixEventQueue`] is tested against (property tests
/// compare pop sequences over arbitrary interleavings, and the
/// `queue-oracle` feature switches whole simulations onto it).
#[derive(Debug)]
pub struct BinaryHeapEventQueue<E> {
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

impl<E> Default for BinaryHeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BinaryHeapEventQueue<E> {
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

/// A radix-heap event queue: same (time, insertion sequence) contract as
/// [`BinaryHeapEventQueue`], tuned for the DES access pattern.
///
/// Keys are the IEEE-754 bit patterns of event times — an order-preserving
/// `u64` mapping because [`SimTime`] is always finite and non-negative.
/// Events live in 65 buckets indexed by the position of the most
/// significant bit in which their key differs from the last popped key
/// (`key == last` → bucket 0). The classic radix-heap property holds:
/// the lowest non-empty bucket contains the global minimum, so `pop` is
/// O(1) except when bucket 0 empties, at which point the lowest non-empty
/// bucket is redistributed against the new minimum. Each event moves only
/// to strictly lower buckets over its lifetime, so total work is
/// O(n · 65) worst case and close to O(n) in practice — with no per-pop
/// sift-down, which is what makes it faster than the heap here.
///
/// FIFO among simultaneous events falls out of stability: pushes append
/// in sequence order, same-key events always share a bucket (their bucket
/// index depends only on `key ^ last`), and redistribution preserves
/// relative order — so bucket 0 is always sequence-sorted and `pop` takes
/// its front. A push earlier than the last popped time (impossible in the
/// simulators, where events are scheduled at or after the current clock)
/// falls back to a full O(n log n) rebuild instead of breaking the radix
/// invariant, so the structure stays correct for arbitrary interleavings.
#[derive(Debug)]
pub struct RadixEventQueue<E> {
    /// `buckets[0]` holds keys equal to `last`; `buckets[i]` (1 ≤ i ≤ 64)
    /// holds keys whose highest differing bit from `last` is bit `i - 1`.
    buckets: Vec<std::collections::VecDeque<Entry<E>>>,
    len: usize,
    seq: u64,
    /// Key (time bits) of the last popped event — the monotone floor the
    /// bucket indices are computed against.
    last: u64,
    #[cfg(debug_assertions)]
    last_popped: Option<SimTime>,
}

/// Order-preserving `u64` key for a non-negative, finite time.
fn time_key(time: SimTime) -> u64 {
    time.as_secs().to_bits()
}

/// Bucket index for `key` relative to the floor `last`.
fn bucket_index(key: u64, last: u64) -> usize {
    (u64::BITS - (key ^ last).leading_zeros()) as usize
}

impl<E> Default for RadixEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> RadixEventQueue<E> {
    const BUCKETS: usize = u64::BITS as usize + 1;

    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            buckets: (0..Self::BUCKETS)
                .map(|_| std::collections::VecDeque::new())
                .collect(),
            len: 0,
            seq: 0,
            last: 0,
            #[cfg(debug_assertions)]
            last_popped: None,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        let key = time_key(time);
        if key < self.last {
            // Non-monotone push: the floor must drop to keep the radix
            // invariant (all pending keys ≥ `last`). Never taken by the
            // simulators; kept so the queue is correct for arbitrary use.
            self.rebuild(key);
        }
        self.buckets[bucket_index(key, self.last)].push_back(Entry { time, seq, event });
        self.len += 1;
    }

    /// Lowers the floor to `new_last` and redistributes every pending
    /// event, restoring canonical (time, seq) order within each bucket.
    fn rebuild(&mut self, new_last: u64) {
        let mut pending: Vec<Entry<E>> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            pending.extend(bucket.drain(..));
        }
        pending.sort_unstable_by_key(|e| (time_key(e.time), e.seq));
        self.last = new_last;
        for entry in pending {
            let bucket = bucket_index(time_key(entry.time), new_last);
            self.buckets[bucket].push_back(entry);
        }
        #[cfg(debug_assertions)]
        {
            // The caller deliberately rewound the floor, so the clock
            // monotonicity invariant restarts from here. The simulators
            // never take this path: for them the invariant is continuous,
            // exactly as in the reference queue.
            self.last_popped = None;
        }
    }

    /// Pops the earliest event, returning its time and payload.
    ///
    /// Debug builds verify the same two DES kernel invariants as the
    /// reference queue: the virtual clock never runs backwards across
    /// pops, and no pending event is earlier than the one just popped.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        if self.buckets[0].is_empty() {
            self.refill_front();
        }
        // dd-lint: allow(hot-path-panic): len > 0 was checked above and refill_front filled bucket 0
        let entry = self.buckets[0].pop_front().expect("len > 0");
        self.len -= 1;
        self.last = time_key(entry.time);
        #[cfg(debug_assertions)]
        {
            if let Some(last) = self.last_popped {
                dd_debug_invariant!(
                    last <= entry.time,
                    "DES clock went backwards: popped {} after {last}",
                    entry.time
                );
            }
            if let Some(next) = self.peek_time() {
                dd_debug_invariant!(
                    entry.time <= next,
                    "event queue disordered: popped {} while {next} is pending",
                    entry.time
                );
            }
            self.last_popped = Some(entry.time);
        }
        Some((entry.time, entry.event))
    }

    /// Moves the lowest non-empty bucket's events down against the new
    /// minimum, leaving that minimum (and any ties) in bucket 0.
    fn refill_front(&mut self) {
        let lowest = self
            .buckets
            .iter()
            .position(|b| !b.is_empty())
            // dd-lint: allow(hot-path-panic): only called with len > 0, so some bucket holds an event
            .expect("len > 0 but all buckets empty");
        let min_key = self.buckets[lowest]
            .iter()
            .map(|e| time_key(e.time))
            .min()
            // dd-lint: allow(hot-path-panic): `lowest` was selected as a non-empty bucket just above
            .expect("bucket is non-empty");
        self.last = min_key;
        // In-order drain: same-key events keep their relative (seq) order,
        // so bucket 0 stays FIFO without comparing sequences. Every entry
        // moves to a strictly lower bucket (its key now shares the old
        // differing bit with the floor), so the source bucket can be taken
        // wholesale and its allocation reused.
        let mut drained = std::mem::take(&mut self.buckets[lowest]);
        for entry in drained.drain(..) {
            let bucket = bucket_index(time_key(entry.time), min_key);
            debug_assert!(bucket < lowest, "radix redistribution must descend");
            self.buckets[bucket].push_back(entry);
        }
        // Hand the (now empty) allocation back so the bucket keeps its
        // capacity for future pushes.
        self.buckets[lowest] = drained;
    }

    /// Removes all pending events and resets the tie-break sequence and
    /// floor, keeping bucket allocations. A cleared queue behaves exactly
    /// like a fresh one.
    pub fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.len = 0;
        self.seq = 0;
        self.last = 0;
        #[cfg(debug_assertions)]
        {
            self.last_popped = None;
        }
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(front) = self.buckets[0].front() {
            return Some(front.time);
        }
        self.buckets
            .iter()
            .find(|b| !b.is_empty())
            // dd-lint: allow(hot-path-panic): find() only yields non-empty buckets, so min() exists
            .map(|b| b.iter().map(|e| e.time).min().expect("non-empty"))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    /// Drains both queue backings over the same (time, payload) stream and
    /// asserts identical pop sequences.
    fn assert_backings_agree(pushes: &[(f64, usize)]) {
        let mut radix = RadixEventQueue::new();
        let mut heap = BinaryHeapEventQueue::new();
        for &(t, v) in pushes {
            radix.push(SimTime::from_secs(t), v);
            heap.push(SimTime::from_secs(t), v);
        }
        loop {
            let (a, b) = (radix.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn radix_matches_heap_on_mixed_times() {
        assert_backings_agree(&[
            (3.0, 0),
            (1.0, 1),
            (3.0, 2),
            (0.0, 3),
            (1.0, 4),
            (1e9, 5),
            (0.5, 6),
            (3.0, 7),
            (0.0, 8),
        ]);
    }

    #[test]
    fn radix_same_time_burst_is_fifo() {
        let mut q = RadixEventQueue::new();
        let t = SimTime::from_secs(7.25);
        for i in 0..1000 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn radix_non_monotone_push_rebuilds() {
        // Pop at t=5, then push t=1 (< last popped): the simulators never
        // do this, but the queue must stay correct via the rebuild path.
        let mut q = RadixEventQueue::new();
        q.push(SimTime::from_secs(5.0), "a");
        q.push(SimTime::from_secs(9.0), "d");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(SimTime::from_secs(1.0), "b");
        q.push(SimTime::from_secs(1.0), "c");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "d");
        assert!(q.pop().is_none());
    }

    #[test]
    fn radix_interleaved_push_pop_monotone() {
        let mut q = RadixEventQueue::new();
        let mut popped = Vec::new();
        for wave in 0..5 {
            for i in 0..20 {
                q.push(
                    SimTime::from_secs(f64::from(wave) + f64::from(i) * 0.01),
                    (wave, i),
                );
            }
            // Drain half before the next wave arrives.
            for _ in 0..10 {
                popped.push(q.pop().unwrap());
            }
        }
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        assert_eq!(popped.len(), 100);
        assert!(popped.windows(2).all(|w| w[0].0 <= w[1].0), "time-ordered");
    }

    #[test]
    fn radix_cleared_queue_behaves_like_fresh() {
        let mut q = RadixEventQueue::new();
        q.push(SimTime::from_secs(4.0), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.clear();
        let mut fresh = RadixEventQueue::new();
        let t = SimTime::from_secs(0.125);
        for i in 0..4 {
            q.push(t, i);
            fresh.push(t, i);
        }
        loop {
            let (a, b) = (q.pop(), fresh.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
