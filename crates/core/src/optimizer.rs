//! The joint service-time + service-cost placement optimization.
//!
//! The paper (Sec. III, "What optimization problem does DayDream solve?")
//! chooses, per component, a *tier parameter* γ (high-end vs low-end) and
//! a *hot-start parameter* δ (run on a hot instance vs cold start), to
//! minimize the sum of normalized service time and normalized service
//! cost with equal weights:
//!
//! ```text
//! (γ*, δ*) = argmin  w_t · S_t / S_t_ref  +  w_c · S_e / S_e_ref
//! ```
//!
//! where `S_t` is the phase's makespan (max over components) and `S_e` the
//! phase's cost. The solver seeds with Algorithm 1's greedy policy
//! (friendly → high-end hot, others → low-end hot, overflow → cold on
//! high-end) and then hill-climbs single-component moves (re-tier a cold
//! start, claim an unused hot instance, swap two instances); the reference
//! values normalizing the objective are the greedy solution's own, so the
//! optimizer can only improve on Algorithm 1.

use dd_platform::pricing::PriceSheet;
use dd_platform::{InstanceView, Placement, SimTime, StartupModel, Tier};
use dd_wfdag::{ComponentInstance, LanguageRuntime, Phase};

/// Weights of the joint objective (paper default: equal).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectiveWeights {
    /// Weight on normalized service time.
    pub time: f64,
    /// Weight on normalized service cost.
    pub cost: f64,
}

impl Default for ObjectiveWeights {
    fn default() -> Self {
        Self {
            time: 1.0,
            cost: 1.0,
        }
    }
}

/// One component's assignment during optimization.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Assign {
    /// Run on pool slot `usize` (index into `available`).
    Hot(usize),
    /// Cold start on the given tier.
    Cold(Tier),
}

/// The placement optimizer.
#[derive(Debug, Clone)]
pub struct PlacementOptimizer {
    startup: StartupModel,
    pricing: PriceSheet,
    weights: ObjectiveWeights,
    friendly_threshold: f64,
    /// Above this phase size, hill climbing is skipped (greedy only).
    max_components_for_search: usize,
}

impl PlacementOptimizer {
    /// Creates an optimizer using the given platform models.
    pub fn new(
        startup: StartupModel,
        pricing: PriceSheet,
        weights: ObjectiveWeights,
        friendly_threshold: f64,
        max_components_for_search: usize,
    ) -> Self {
        Self {
            startup,
            pricing,
            weights,
            friendly_threshold,
            max_components_for_search,
        }
    }

    /// Computes placements for a phase: greedy Algorithm-1 policy plus
    /// local-search refinement of (γ, δ).
    pub fn place(
        &self,
        phase: &Phase,
        available: &[InstanceView],
        now: SimTime,
        runtimes: &[LanguageRuntime],
    ) -> Vec<Placement> {
        let mut assigns = self.greedy(phase, available, now);
        if phase.components.len() <= self.max_components_for_search {
            self.refine(phase, available, now, runtimes, &mut assigns);
        }
        assigns
            .iter()
            .map(|a| match *a {
                Assign::Hot(slot) => Placement {
                    tier: available[slot].tier,
                    instance: Some(available[slot].id),
                },
                Assign::Cold(tier) => Placement {
                    tier,
                    instance: None,
                },
            })
            .collect()
    }

    /// Algorithm 1's placement: high-end-friendly components onto
    /// high-end hot instances, others onto low-end; leftovers cross over
    /// to any remaining hot instance; the rest cold start on high-end
    /// ("DayDream executes these components on high-end function instances
    /// after loading …").
    fn greedy(&self, phase: &Phase, available: &[InstanceView], _now: SimTime) -> Vec<Assign> {
        let n = phase.components.len();
        let mut assigns = vec![Assign::Cold(Tier::HighEnd); n];

        // Sort instance slots per tier by readiness (earliest first) so
        // waits are minimized; only hot (preload-free) instances are ours.
        let mut he_slots: Vec<usize> = (0..available.len())
            .filter(|&s| available[s].preload.is_none() && available[s].tier == Tier::HighEnd)
            .collect();
        let mut le_slots: Vec<usize> = (0..available.len())
            .filter(|&s| available[s].preload.is_none() && available[s].tier == Tier::LowEnd)
            .collect();
        let by_ready = |slots: &mut Vec<usize>| {
            slots.sort_by(|&a, &b| {
                available[a]
                    .ready_at
                    .cmp(&available[b].ready_at)
                    .then(available[a].id.cmp(&available[b].id))
            });
        };
        by_ready(&mut he_slots);
        by_ready(&mut le_slots);
        // Consume from the back (so pop() yields the earliest-ready).
        he_slots.reverse();
        le_slots.reverse();

        // Longest-running friendly components claim high-end first.
        let mut friendly: Vec<usize> = (0..n)
            .filter(|&i| phase.components[i].is_high_end_friendly(self.friendly_threshold))
            .collect();
        friendly.sort_by(|&a, &b| {
            phase.components[b]
                .exec_he_secs
                .total_cmp(&phase.components[a].exec_he_secs)
        });
        let mut modest: Vec<usize> = (0..n)
            .filter(|&i| !phase.components[i].is_high_end_friendly(self.friendly_threshold))
            .collect();
        modest.sort_by(|&a, &b| {
            phase.components[b]
                .exec_le_secs
                .total_cmp(&phase.components[a].exec_le_secs)
        });

        let mut overflow = Vec::new();
        for i in friendly {
            match he_slots.pop() {
                Some(slot) => assigns[i] = Assign::Hot(slot),
                None => overflow.push(i),
            }
        }
        for i in modest {
            match le_slots.pop() {
                Some(slot) => assigns[i] = Assign::Hot(slot),
                None => overflow.push(i),
            }
        }
        // Cross-tier fill: any hot instance beats a cold start.
        for i in overflow {
            if let Some(slot) = he_slots.pop().or_else(|| le_slots.pop()) {
                assigns[i] = Assign::Hot(slot);
            }
            // else: stays Cold(HighEnd).
        }
        assigns
    }

    /// Hill-climbs single-component moves against the joint objective.
    ///
    /// A hot slot enters [`component_cost`] only through its
    /// `(tier, ready_at)` — every preload-free slot sharing those is
    /// interchangeable — so slots are deduplicated into *classes* and the
    /// per-component (time, cost) table is `n × classes` instead of
    /// `n × pool`. Candidate moves likewise enumerate one unused slot per
    /// class (the lowest-indexed, which is the only one the dense scan
    /// could ever accept: a same-class duplicate has a bit-identical
    /// objective and the acceptance test is strict). The makespan with
    /// component `i` removed comes from a cached top-2 of the completion
    /// times, rebuilt by one O(n) scan per accepted move. All three
    /// shortcuts reproduce the dense scan's choices bit for bit.
    fn refine(
        &self,
        phase: &Phase,
        available: &[InstanceView],
        now: SimTime,
        runtimes: &[LanguageRuntime],
        assigns: &mut [Assign],
    ) {
        let n = phase.components.len();
        if n == 0 {
            return;
        }
        // Group the preload-free (hot-startable) slots into equivalence
        // classes by (tier, ready_at). Preloaded slots are never assigned
        // by greedy nor candidates here, so they get no class.
        const NO_CLASS: usize = usize::MAX;
        let mut class_of = vec![NO_CLASS; available.len()];
        let mut classes: Vec<(Tier, SimTime)> = Vec::new();
        for (slot, inst) in available.iter().enumerate() {
            if inst.preload.is_some() {
                continue;
            }
            let key = (inst.tier, inst.ready_at);
            class_of[slot] = match classes.iter().position(|&k| k == key) {
                Some(c) => c,
                None => {
                    classes.push(key);
                    classes.len() - 1
                }
            };
        }
        let n_classes = classes.len();

        // Tabulate (time, cost) for each component × slot class, flat
        // row-major, plus the high-end cold branch. The paper's
        // service-cost formulation only has a *high-end* cold branch
        // (γ·(1−δ)·e^HE): cold starts always run high-end, so the move
        // set is {any unused hot instance, Cold(HighEnd)}.
        let mut hot_tc: Vec<(f64, f64)> = Vec::with_capacity(n * n_classes);
        let cold_tc: Vec<(f64, f64)> = phase
            .components
            .iter()
            .map(|c| {
                for &(tier, ready_at) in &classes {
                    hot_tc.push(self.hot_slot_cost(c, tier, ready_at, now));
                }
                self.component_cost(c, Assign::Cold(Tier::HighEnd), available, now, runtimes)
            })
            .collect();
        let tc_of = |i: usize, a: Assign| match a {
            Assign::Hot(slot) => hot_tc[i * n_classes + class_of[slot]],
            Assign::Cold(_) => cold_tc[i],
        };

        let mut times = vec![0.0f64; n];
        let mut costs = vec![0.0f64; n];
        let mut total_cost = 0.0;
        let mut used = vec![false; available.len()];
        for i in 0..n {
            let (t, c) = tc_of(i, assigns[i]);
            times[i] = t;
            costs[i] = c;
            total_cost += c;
            if let Assign::Hot(slot) = assigns[i] {
                used[slot] = true;
            }
        }
        let ref_time = times.iter().cloned().fold(0.0f64, f64::max);
        let ref_cost = total_cost;
        if ref_time <= 0.0 || ref_cost <= 0.0 {
            return;
        }
        let objective =
            |t: f64, c: f64| self.weights.time * t / ref_time + self.weights.cost * c / ref_cost;

        // Cached top-2 completion times: the largest value, how many
        // components attain it, and the largest value strictly below it.
        // The equality is exact on purpose: `times[i]` is one of the
        // scanned entries, so bit equality decides "does i attain the
        // maximum", not an approximate comparison.
        #[allow(clippy::float_cmp)]
        let top2 = |times: &[f64]| {
            let mut max1 = 0.0f64;
            let mut cnt1 = 0usize;
            let mut max2 = 0.0f64;
            for &t in times {
                if t > max1 {
                    max2 = max1;
                    max1 = t;
                    cnt1 = 1;
                } else if t == max1 {
                    cnt1 += 1;
                } else if t > max2 {
                    max2 = t;
                }
            }
            (max1, cnt1, max2)
        };
        let (mut max1, mut cnt1, mut max2) = top2(&times);

        // One candidate slot per class — the lowest-indexed unused
        // preload-free one — emitted in ascending slot order, i.e. the
        // dense 0..available.len() scan with the later same-class
        // duplicates removed. A duplicate's objective is bit-identical to
        // its class representative's, so under the strict acceptance test
        // it could never be chosen, and pruning it cannot perturb the
        // 1e-12 threshold sequence. The list depends only on `used` and
        // the class map — not on the component under consideration — so
        // it is rebuilt only after an accepted move changes `used`.
        let mut seen_class = vec![false; n_classes];
        let mut cand_slots: Vec<usize> = Vec::with_capacity(n_classes);
        let rebuild_cands =
            |seen_class: &mut [bool], cand_slots: &mut Vec<usize>, used: &[bool]| {
                for c in seen_class.iter_mut() {
                    *c = false;
                }
                cand_slots.clear();
                for (slot, &class) in class_of.iter().enumerate() {
                    if class != NO_CLASS && !used[slot] && !seen_class[class] {
                        seen_class[class] = true;
                        cand_slots.push(slot);
                        if cand_slots.len() == n_classes {
                            break;
                        }
                    }
                }
            };
        rebuild_cands(&mut seen_class, &mut cand_slots, &used);
        for _pass in 0..3 {
            let mut improved = false;
            for i in 0..n {
                // Makespan with component i removed: the cached maximum,
                // unless i alone attains it.
                let makespan_excl_i = if times[i] < max1 || cnt1 > 1 {
                    max1
                } else {
                    max2
                };

                let current_obj = objective(makespan_excl_i.max(times[i]), total_cost);
                let mut best: Option<(Assign, f64, f64, f64)> = None;
                let candidates = [Assign::Cold(Tier::HighEnd)]
                    .into_iter()
                    .chain(cand_slots.iter().map(|&s| Assign::Hot(s)));
                for cand in candidates {
                    if cand == assigns[i] {
                        continue;
                    }
                    let (t, c) = tc_of(i, cand);
                    let obj = objective(makespan_excl_i.max(t), total_cost - costs[i] + c);
                    if obj + 1e-12 < best.map_or(current_obj, |(_, _, _, o)| o) {
                        best = Some((cand, t, c, obj));
                    }
                }
                if let Some((cand, t, c, _)) = best {
                    if let Assign::Hot(slot) = assigns[i] {
                        used[slot] = false;
                    }
                    if let Assign::Hot(slot) = cand {
                        used[slot] = true;
                    }
                    total_cost += c - costs[i];
                    times[i] = t;
                    costs[i] = c;
                    assigns[i] = cand;
                    improved = true;
                    (max1, cnt1, max2) = top2(&times);
                    rebuild_cands(&mut seen_class, &mut cand_slots, &used);
                }
            }
            if !improved {
                break;
            }
        }
    }

    /// [`component_cost`](Self::component_cost) of `Assign::Hot` for a
    /// preload-free slot, expressed on the slot's class key — the only
    /// slot attributes the hot branch reads.
    fn hot_slot_cost(
        &self,
        component: &ComponentInstance,
        tier: Tier,
        ready_at: SimTime,
        now: SimTime,
    ) -> (f64, f64) {
        let wait = ready_at.since(now);
        let overhead = self.startup.hot_overhead_secs(component, tier);
        let busy =
            overhead + tier.exec_secs(component) + self.startup.output_write_secs(component, tier);
        (wait + busy, self.pricing.cost(tier, wait + busy))
    }

    /// Evaluates (S_t, S_e) of a full assignment: the phase makespan and
    /// the phase cost, per the paper's service-time / service-cost
    /// equations (hot instances also bill their pre-start keep-alive).
    /// Used by the property tests; `refine` uses the tabulated fast path.
    #[cfg_attr(not(test), allow(dead_code))]
    fn evaluate(
        &self,
        phase: &Phase,
        available: &[InstanceView],
        now: SimTime,
        runtimes: &[LanguageRuntime],
        assigns: &[Assign],
    ) -> (f64, f64) {
        let mut makespan = 0.0f64;
        let mut cost = 0.0f64;
        for (component, assign) in phase.components.iter().zip(assigns) {
            let (time, money) = self.component_cost(component, *assign, available, now, runtimes);
            makespan = makespan.max(time);
            cost += money;
        }
        // Unused hot instances were kept alive from request to `now` for
        // nothing; that cost is sunk identically under every assignment,
        // so it does not enter the argmin.
        (makespan, cost)
    }

    /// (completion time from phase start, dollar cost) of one component
    /// under one assignment.
    fn component_cost(
        &self,
        component: &ComponentInstance,
        assign: Assign,
        available: &[InstanceView],
        now: SimTime,
        runtimes: &[LanguageRuntime],
    ) -> (f64, f64) {
        match assign {
            Assign::Hot(slot) => {
                let inst = &available[slot];
                let wait = inst.ready_at.since(now);
                let overhead = match inst.preload {
                    Some(ty) if ty == component.type_id => {
                        self.startup.warm_overhead_secs(component, inst.tier)
                    }
                    _ => self.startup.hot_overhead_secs(component, inst.tier),
                };
                let busy = overhead
                    + inst.tier.exec_secs(component)
                    + self.startup.output_write_secs(component, inst.tier);
                (wait + busy, self.pricing.cost(inst.tier, wait + busy))
            }
            Assign::Cold(tier) => {
                let busy = self.startup.cold_overhead_secs(component, tier, runtimes)
                    + tier.exec_secs(component) * self.startup.exec_multiplier(true)
                    + self.startup.output_write_secs(component, tier);
                (busy, self.pricing.cost(tier, busy))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_platform::pool::InstanceId;
    use dd_wfdag::ComponentTypeId;

    fn optimizer() -> PlacementOptimizer {
        PlacementOptimizer::new(
            StartupModel::aws(),
            PriceSheet::aws(),
            ObjectiveWeights::default(),
            0.20,
            128,
        )
    }

    fn comp(ty: u32, he: f64, le: f64) -> ComponentInstance {
        ComponentInstance {
            type_id: ComponentTypeId(ty),
            exec_he_secs: he,
            exec_le_secs: le,
            read_mb: 5.0,
            write_mb: 10.0,
            cpu_demand: 0.5,
            mem_gb: 1.0,
        }
    }

    fn hot(id: u64, tier: Tier) -> InstanceView {
        InstanceView {
            id: InstanceId(id),
            tier,
            preload: None,
            ready_at: SimTime::ZERO,
        }
    }

    const RUNTIMES: [LanguageRuntime; 1] = [LanguageRuntime::Python];

    #[test]
    fn friendly_components_get_high_end_hot() {
        let phase = Phase {
            index: 0,
            components: vec![comp(0, 4.0, 6.0), comp(1, 3.0, 3.1)],
        };
        let pool = [hot(0, Tier::HighEnd), hot(1, Tier::LowEnd)];
        let placements = optimizer().place(&phase, &pool, SimTime::ZERO, &RUNTIMES);
        // Component 0 is friendly (50% slowdown) → high-end instance 0.
        assert_eq!(placements[0].instance, Some(InstanceId(0)));
        assert_eq!(placements[0].tier, Tier::HighEnd);
        // Component 1 is modest (3% slowdown) → low-end instance 1.
        assert_eq!(placements[1].instance, Some(InstanceId(1)));
        assert_eq!(placements[1].tier, Tier::LowEnd);
    }

    #[test]
    fn overflow_cold_starts_on_high_end() {
        let phase = Phase {
            index: 0,
            components: vec![comp(0, 4.0, 6.0), comp(1, 4.0, 6.0), comp(2, 4.0, 6.0)],
        };
        let pool = [hot(0, Tier::HighEnd)];
        let placements = optimizer().place(&phase, &pool, SimTime::ZERO, &RUNTIMES);
        let cold: Vec<_> = placements.iter().filter(|p| p.instance.is_none()).collect();
        assert_eq!(cold.len(), 2);
        assert!(cold.iter().all(|p| p.tier == Tier::HighEnd));
    }

    #[test]
    fn hot_preferred_over_cold_even_cross_tier() {
        // A friendly component with no high-end instance left should take
        // the low-end hot instance rather than cold start: the hot start
        // saves more than the tier costs for mild slowdowns.
        let phase = Phase {
            index: 0,
            components: vec![comp(0, 2.0, 2.5)],
        };
        let pool = [hot(0, Tier::LowEnd)];
        let placements = optimizer().place(&phase, &pool, SimTime::ZERO, &RUNTIMES);
        assert_eq!(placements[0].instance, Some(InstanceId(0)));
    }

    #[test]
    fn no_pool_all_cold() {
        let phase = Phase {
            index: 0,
            components: vec![comp(0, 2.0, 2.2), comp(1, 2.0, 4.0)],
        };
        let placements = optimizer().place(&phase, &[], SimTime::ZERO, &RUNTIMES);
        assert!(placements.iter().all(|p| p.instance.is_none()));
    }

    #[test]
    fn no_instance_used_twice() {
        let phase = Phase {
            index: 0,
            components: (0..10).map(|i| comp(i, 3.0, 3.1)).collect(),
        };
        let pool: Vec<_> = (0..4)
            .map(|i| {
                hot(
                    i,
                    if i % 2 == 0 {
                        Tier::HighEnd
                    } else {
                        Tier::LowEnd
                    },
                )
            })
            .collect();
        let placements = optimizer().place(&phase, &pool, SimTime::ZERO, &RUNTIMES);
        let mut ids: Vec<_> = placements.iter().filter_map(|p| p.instance).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), before, "an instance was used twice");
        assert_eq!(before, 4, "all pool instances should be used");
    }

    #[test]
    fn refinement_never_worse_than_greedy() {
        // The local search normalizes against the greedy solution, so the
        // optimized objective can only be ≤ the greedy one.
        let opt = optimizer();
        let phase = Phase {
            index: 0,
            components: vec![
                comp(0, 6.0, 9.5),
                comp(1, 1.0, 1.05),
                comp(2, 3.0, 5.5),
                comp(3, 2.0, 2.1),
            ],
        };
        let pool = [
            hot(0, Tier::HighEnd),
            hot(1, Tier::LowEnd),
            hot(2, Tier::LowEnd),
        ];
        let now = SimTime::ZERO;
        let greedy_assigns = opt.greedy(&phase, &pool, now);
        let (gt, gc) = opt.evaluate(&phase, &pool, now, &RUNTIMES, &greedy_assigns);

        let mut refined = greedy_assigns.clone();
        opt.refine(&phase, &pool, now, &RUNTIMES, &mut refined);
        let (rt, rc) = opt.evaluate(&phase, &pool, now, &RUNTIMES, &refined);

        let greedy_obj = 1.0 + 1.0; // normalized against itself
        let refined_obj = rt / gt + rc / gc;
        assert!(
            refined_obj <= greedy_obj + 1e-9,
            "refined {refined_obj} vs greedy {greedy_obj}"
        );
    }

    #[test]
    fn waiting_instance_costed() {
        // An instance that becomes ready late makes the hot path slower;
        // with a long enough delay the optimizer must prefer cold.
        let phase = Phase {
            index: 0,
            components: vec![comp(0, 2.0, 2.2)],
        };
        let late = InstanceView {
            id: InstanceId(0),
            tier: Tier::HighEnd,
            preload: None,
            ready_at: SimTime::from_secs(100.0),
        };
        let placements = optimizer().place(&phase, &[late], SimTime::ZERO, &RUNTIMES);
        assert_eq!(
            placements[0].instance, None,
            "100 s of waiting must lose to a 1.1 s cold start"
        );
    }

    #[test]
    fn large_phase_uses_greedy_only() {
        // Above the size cap the optimizer still returns valid placements.
        let opt = PlacementOptimizer::new(
            StartupModel::aws(),
            PriceSheet::aws(),
            ObjectiveWeights::default(),
            0.20,
            8,
        );
        let phase = Phase {
            index: 0,
            components: (0..50).map(|i| comp(i, 3.0, 4.0)).collect(),
        };
        let pool: Vec<_> = (0..20).map(|i| hot(i, Tier::HighEnd)).collect();
        let placements = opt.place(&phase, &pool, SimTime::ZERO, &RUNTIMES);
        assert_eq!(placements.len(), 50);
        assert_eq!(
            placements.iter().filter(|p| p.instance.is_some()).count(),
            20
        );
    }
}
