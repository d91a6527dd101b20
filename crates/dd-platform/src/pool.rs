//! The serverless function instance pool.
//!
//! Hot- and warm-started instances waiting for work (paper Sec. IV,
//! "Serverless Function Instance Pool"). Each pooled instance knows its
//! tier, what is pre-loaded into it (nothing but runtimes for hot starts;
//! a specific component for Wild-style warm starts), when it was
//! requested, and when its background preparation completes.

use crate::des::SimTime;
use crate::tier::Tier;
use dd_wfdag::ComponentTypeId;

/// Identifier of a pooled instance within one run's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u64);

impl std::fmt::Display for InstanceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// One entry of a pool request: start an instance of `tier`, optionally
/// pre-pairing a specific component (`Some` = warm start, `None` = hot
/// start: runtimes only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolEntryRequest {
    /// Requested tier.
    pub tier: Tier,
    /// Component to pre-load, or `None` for a hot (runtime-only) start.
    pub preload: Option<ComponentTypeId>,
}

/// A batch of instances a scheduler asks the platform to start.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolRequest {
    /// The instances to start.
    pub entries: Vec<PoolEntryRequest>,
}

impl PoolRequest {
    /// An empty request (no pre-starting at all — everything cold).
    pub fn none() -> Self {
        Self::default()
    }

    /// A hot-start request: `high_end` + `low_end` runtime-only instances.
    pub fn hot(high_end: usize, low_end: usize) -> Self {
        let mut entries = Vec::with_capacity(high_end + low_end);
        entries.extend(std::iter::repeat_n(
            PoolEntryRequest {
                tier: Tier::HighEnd,
                preload: None,
            },
            high_end,
        ));
        entries.extend(std::iter::repeat_n(
            PoolEntryRequest {
                tier: Tier::LowEnd,
                preload: None,
            },
            low_end,
        ));
        Self { entries }
    }

    /// A warm-start request: one instance per `(tier, component)` pair.
    pub fn warm(pairs: impl IntoIterator<Item = (Tier, ComponentTypeId)>) -> Self {
        Self {
            entries: pairs
                .into_iter()
                .map(|(tier, ty)| PoolEntryRequest {
                    tier,
                    preload: Some(ty),
                })
                .collect(),
        }
    }

    /// Total requested instances.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is requested.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Count of requested instances on `tier`.
    pub fn count(&self, tier: Tier) -> usize {
        self.entries.iter().filter(|e| e.tier == tier).count()
    }
}

/// A live pooled instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PooledInstance {
    /// Identifier.
    pub id: InstanceId,
    /// Tier.
    pub tier: Tier,
    /// Pre-loaded component (warm) or `None` (hot).
    pub preload: Option<ComponentTypeId>,
    /// When the scheduler requested it (keep-alive billing starts here).
    pub requested_at: SimTime,
    /// When background preparation finishes and it can accept work.
    pub ready_at: SimTime,
}

/// Resolves a placement's instance id to its pool slot in O(1).
///
/// Both executors materialize each phase's pool as exactly one spawn
/// batch with strictly sequential ids, so the slot is the offset from the
/// first instance's id. The bounds + id check keeps the "unknown
/// instance" panic semantics for schedulers that return an id the pool
/// never held.
pub(crate) fn resolve_slot(pool: &[PooledInstance], id: InstanceId) -> usize {
    // `checked_sub` + `try_into` instead of `wrapping_sub as usize`: an
    // id below the batch start (or an offset past usize::MAX on 32-bit)
    // must fall through to the unknown-instance panic, never alias a
    // valid-but-wrong slot through wraparound or truncation.
    let slot = pool
        .first()
        .and_then(|first| id.0.checked_sub(first.id.0))
        .and_then(|offset| usize::try_from(offset).ok());
    match slot {
        Some(s) if pool.get(s).is_some_and(|inst| inst.id == id) => s,
        // A placement naming an id absent from the pool is a
        // scheduler-contract violation, not a recoverable simulation
        // state. (The directive must sit directly above the panic line:
        // a standalone allow covers exactly the next line.)
        // dd-lint: allow(hot-path-panic): scheduler-contract violation, deliberately fatal
        _ => panic!("placement on unknown instance {id}"),
    }
}

/// Read-only view of a pooled instance handed to schedulers for placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceView {
    /// Identifier to reference in a [`crate::sched::Placement`].
    pub id: InstanceId,
    /// Tier.
    pub tier: Tier,
    /// Pre-loaded component, if warm-started.
    pub preload: Option<ComponentTypeId>,
    /// When it becomes ready.
    pub ready_at: SimTime,
}

impl From<&PooledInstance> for InstanceView {
    fn from(i: &PooledInstance) -> Self {
        Self {
            id: i.id,
            tier: i.tier,
            preload: i.preload,
            ready_at: i.ready_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_request_counts() {
        let r = PoolRequest::hot(3, 2);
        assert_eq!(r.len(), 5);
        assert_eq!(r.count(Tier::HighEnd), 3);
        assert_eq!(r.count(Tier::LowEnd), 2);
        assert!(r.entries.iter().all(|e| e.preload.is_none()));
    }

    #[test]
    fn warm_request_pairs() {
        let r = PoolRequest::warm([
            (Tier::HighEnd, ComponentTypeId(4)),
            (Tier::HighEnd, ComponentTypeId(9)),
        ]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.entries[0].preload, Some(ComponentTypeId(4)));
        assert_eq!(r.entries[1].preload, Some(ComponentTypeId(9)));
    }

    #[test]
    fn empty_request() {
        let r = PoolRequest::none();
        assert!(r.is_empty());
        assert_eq!(r.count(Tier::HighEnd), 0);
    }

    fn instance(id: u64) -> PooledInstance {
        PooledInstance {
            id: InstanceId(id),
            tier: Tier::HighEnd,
            preload: None,
            requested_at: SimTime::ZERO,
            ready_at: SimTime::ZERO,
        }
    }

    #[test]
    fn resolve_slot_sequential_batch() {
        let pool: Vec<PooledInstance> = (7..12).map(instance).collect();
        for (slot, id) in (7..12).enumerate() {
            assert_eq!(resolve_slot(&pool, InstanceId(id)), slot);
        }
    }

    #[test]
    #[should_panic(expected = "unknown instance")]
    fn resolve_slot_rejects_id_below_batch_start() {
        // id < first.id used to wrap to a huge offset (or, truncated on
        // 32-bit, alias a valid slot); it must hit the fatal panic.
        let pool: Vec<PooledInstance> = (100..104).map(instance).collect();
        resolve_slot(&pool, InstanceId(99));
    }

    #[test]
    #[should_panic(expected = "unknown instance")]
    fn resolve_slot_rejects_non_contiguous_id() {
        // Non-contiguous ids (a tenant-interleaved spawn batch would
        // produce these) break the one-sequential-batch assumption: the
        // offset lands on a slot holding a different id, which must
        // panic, not resolve.
        let pool = vec![instance(10), instance(20)];
        resolve_slot(&pool, InstanceId(20));
    }

    #[test]
    #[should_panic(expected = "unknown instance")]
    fn resolve_slot_rejects_wrapping_offset() {
        // first.id near u64::MAX with a small id: wrapping_sub would
        // produce a small bogus offset (1 - (MAX-1) wraps to 3) instead
        // of the out-of-pool fact; checked_sub must refuse outright.
        let pool = vec![instance(u64::MAX - 1), instance(u64::MAX)];
        resolve_slot(&pool, InstanceId(1));
    }

    #[test]
    #[should_panic(expected = "unknown instance")]
    fn resolve_slot_rejects_empty_pool() {
        resolve_slot(&[], InstanceId(0));
    }

    #[test]
    fn view_from_instance() {
        let inst = PooledInstance {
            id: InstanceId(3),
            tier: Tier::LowEnd,
            preload: None,
            requested_at: SimTime::from_secs(1.0),
            ready_at: SimTime::from_secs(2.0),
        };
        let view = InstanceView::from(&inst);
        assert_eq!(view.id, InstanceId(3));
        assert_eq!(view.tier, Tier::LowEnd);
        assert_eq!(view.ready_at, SimTime::from_secs(2.0));
    }
}
