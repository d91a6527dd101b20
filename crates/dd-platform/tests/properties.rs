//! Property-based tests of the platform substrate: DES ordering, storage
//! notifications, billing arithmetic, and start-up model invariants.

// Exact float equality below asserts bit-reproducibility (determinism contract).
#![allow(clippy::float_cmp)]

use dd_platform::{
    BackendStore, CloudVendor, ClusterKind, ClusterSim, EventQueue, PriceSheet, SimTime,
    StartupModel, Tier,
};
use dd_wfdag::{ComponentInstance, ComponentTypeId, LanguageRuntime, Phase};
use proptest::prelude::*;

fn component(read_mb: f64, write_mb: f64, he: f64, le_slow: f64) -> ComponentInstance {
    ComponentInstance {
        type_id: ComponentTypeId(0),
        exec_he_secs: he,
        exec_le_secs: he * (1.0 + le_slow),
        read_mb,
        write_mb,
        cpu_demand: 0.5,
        mem_gb: 1.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The event queue matches a trivially correct model — a `Vec` kept
    /// sorted by (time, insertion sequence) — on every pop and every
    /// `peek_time`, under arbitrary interleavings of pushes and pops in the
    /// simulators' (monotone) domain: events are always scheduled at or
    /// after the current virtual clock. Coarse offsets (t/4, often 0) force
    /// exact timestamp ties, whose FIFO order the model pins.
    #[test]
    fn event_queue_total_order(
        ops in proptest::collection::vec((proptest::bool::ANY, 0u32..40), 1..300),
    ) {
        let mut q = EventQueue::new();
        let mut model: Vec<(SimTime, usize)> = Vec::new();
        let mut clock = SimTime::ZERO;
        for (i, &(is_pop, t)) in ops.iter().enumerate() {
            if is_pop {
                let expected = (!model.is_empty()).then(|| model.remove(0));
                prop_assert_eq!(q.pop(), expected);
                if let Some((at, _)) = expected {
                    clock = at;
                }
            } else {
                let time = clock.after(f64::from(t) / 4.0);
                q.push(time, i);
                // Sequence numbers grow with `i`, so a stable sort by
                // time alone is the (time, seq) order.
                model.push((time, i));
                model.sort_by_key(|&(at, _)| at);
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.peek_time(), model.first().map(|&(at, _)| at));
        }
        for expected in model {
            prop_assert_eq!(q.pop(), Some(expected));
        }
        prop_assert_eq!(q.pop(), None);
    }

    /// Storage notifications: half-complete is the ceil(n/2)-th smallest
    /// arrival and complete is the max, regardless of arrival order.
    #[test]
    fn storage_notifications_order_free(arrivals in proptest::collection::vec(0.0f64..100.0, 1..60)) {
        let mut store = BackendStore::new();
        store.begin_phase(0, arrivals.len());
        for &a in &arrivals {
            store.record_output(0, SimTime::from_secs(a), 1.0);
        }
        let n = store.notifications(0);
        let mut sorted = arrivals.clone();
        sorted.sort_by(f64::total_cmp);
        let half = sorted[arrivals.len().div_ceil(2) - 1];
        let max = *sorted.last().unwrap();
        prop_assert!((n.half_complete.as_secs() - half).abs() < 1e-12);
        prop_assert!((n.complete.as_secs() - max).abs() < 1e-12);
        prop_assert!(n.half_complete <= n.complete);
    }

    /// Start-up ordering warm < hot < cold holds for every vendor,
    /// tier and I/O volume; all overheads scale with the vendor
    /// multiplier.
    #[test]
    fn startup_ordering_universal(
        read_mb in 0.0f64..2_000.0,
        write_mb in 0.0f64..2_000.0,
        he in 0.1f64..30.0,
        vendor_idx in 0usize..3,
    ) {
        let vendor = CloudVendor::ALL[vendor_idx];
        let m = StartupModel::aws().with_vendor_multiplier(vendor.startup_multiplier());
        let c = component(read_mb, write_mb, he, 0.2);
        let runtimes = [LanguageRuntime::Python];
        for tier in Tier::ALL {
            let warm = m.warm_overhead_secs(&c, tier);
            let hot = m.hot_overhead_secs(&c, tier);
            let cold = m.cold_overhead_secs(&c, tier, &runtimes);
            prop_assert!(warm > 0.0 && warm < hot && hot < cold);
            // The decomposition identity: hot overhead + hot preparation
            // equals cold overhead.
            let identity = hot + m.hot_prepare_secs(&runtimes) - cold;
            prop_assert!(identity.abs() < 1e-9, "identity off by {identity}");
        }
    }

    /// Billing is linear and non-negative for all vendors.
    #[test]
    fn billing_linear(secs in 0.0f64..100_000.0, vendor_idx in 0usize..3) {
        let sheet = PriceSheet::for_vendor(CloudVendor::ALL[vendor_idx]);
        for tier in Tier::ALL {
            let one = sheet.cost(tier, secs);
            let two = sheet.cost(tier, 2.0 * secs);
            prop_assert!(one >= 0.0);
            prop_assert!((two - 2.0 * one).abs() < 1e-9);
        }
        prop_assert!(sheet.cost(Tier::HighEnd, secs) >= sheet.cost(Tier::LowEnd, secs));
    }

    /// Cluster phase time is monotone: more components never finish
    /// sooner, and more nodes never finish later.
    #[test]
    fn cluster_phase_monotonicity(n in 1usize..60, nodes in 1usize..40, he in 0.5f64..10.0) {
        let runtimes = [LanguageRuntime::Python];
        let phase = |count: usize| Phase {
            index: 0,
            components: vec![component(5.0, 5.0, he, 0.1); count],
        };
        let sim = ClusterSim::new(ClusterKind::Hpc, nodes);
        let t_n = sim.phase_time(&phase(n), &runtimes).phase_secs;
        let t_more = sim.phase_time(&phase(n + 5), &runtimes).phase_secs;
        prop_assert!(t_more >= t_n, "more components finished sooner: {t_more} < {t_n}");

        let wide = ClusterSim::new(ClusterKind::Hpc, nodes + 8);
        let t_wide = wide.phase_time(&phase(n), &runtimes).phase_secs;
        prop_assert!(t_wide <= t_n + 1e-9, "more nodes slower: {t_wide} > {t_n}");
    }

    /// SimTime arithmetic: `after` and `since` are inverse, `max` is
    /// commutative.
    #[test]
    fn simtime_algebra(a in 0.0f64..1e6, d in 0.0f64..1e5) {
        let t = SimTime::from_secs(a);
        let later = t.after(d);
        prop_assert!((later.since(t) - d).abs() < 1e-6);
        prop_assert_eq!(t.max(later), later);
        prop_assert_eq!(later.max(t), later);
        prop_assert_eq!(t.since(later), 0.0);
    }
}
