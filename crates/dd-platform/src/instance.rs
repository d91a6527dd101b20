//! The microVM instance lifecycle state machine.
//!
//! Serverless function instances move through a fixed lifecycle (paper
//! Sec. IV: microVMs "spawn up, component language runtimes and
//! application metadata are loaded into the memory of the instances"):
//!
//! ```text
//! Requested → Booting → LoadingRuntimes → Ready ─→ LoadingComponent → Executing → Writing → Done
//!                                          │
//!                                          └─→ Terminated   (unused pool instance)
//! ```
//!
//! Warm-started instances additionally pass through `LoadingComponent`
//! *before* `Ready` (the component is pre-paired); cold starts enter at
//! `Booting` with no pooled `Ready` dwell. [`InstanceLifecycle`] enforces
//! the legal transitions; the execution-trace validator replays every
//! traced component through it, so an executor bug that, say, starts
//! execution before the runtime load would be caught structurally rather
//! than by timing heuristics.

/// A state in the instance lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstanceState {
    /// Pool request issued; nothing allocated yet.
    Requested,
    /// microVM booting (kernel + user space).
    Booting,
    /// Language runtimes streaming into memory.
    LoadingRuntimes,
    /// Idle in the pool, able to accept any component (hot) or its paired
    /// component (warm).
    Ready,
    /// Component executable + metadata loading at invocation.
    LoadingComponent,
    /// Component computing.
    Executing,
    /// Output streaming to back-end storage.
    Writing,
    /// Completed successfully; instance released.
    Done,
    /// Terminated unused (wasted keep-alive).
    Terminated,
}

impl InstanceState {
    /// States a given state may transition to.
    pub fn successors(self) -> &'static [InstanceState] {
        use InstanceState::*;
        match self {
            Requested => &[Booting],
            Booting => &[LoadingRuntimes],
            // Warm starts pre-load their component before going Ready;
            // cold starts skip Ready entirely.
            LoadingRuntimes => &[Ready, LoadingComponent],
            Ready => &[LoadingComponent, Terminated],
            LoadingComponent => &[Executing, Ready],
            Executing => &[Writing],
            Writing => &[Done],
            Done | Terminated => &[],
        }
    }

    /// Whether the state is terminal.
    pub fn is_terminal(self) -> bool {
        matches!(self, InstanceState::Done | InstanceState::Terminated)
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        use InstanceState::*;
        match self {
            Requested => "requested",
            Booting => "booting",
            LoadingRuntimes => "loading-runtimes",
            Ready => "ready",
            LoadingComponent => "loading-component",
            Executing => "executing",
            Writing => "writing",
            Done => "done",
            Terminated => "terminated",
        }
    }
}

/// Error from an illegal lifecycle transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IllegalTransition {
    /// State the instance was in.
    pub from: InstanceState,
    /// State that was requested.
    pub to: InstanceState,
}

impl std::fmt::Display for IllegalTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "illegal instance transition {} → {}",
            self.from.name(),
            self.to.name()
        )
    }
}

impl std::error::Error for IllegalTransition {}

/// A lifecycle tracker enforcing legal transitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceLifecycle {
    state: InstanceState,
    history: Vec<InstanceState>,
}

impl Default for InstanceLifecycle {
    fn default() -> Self {
        Self::new()
    }
}

impl InstanceLifecycle {
    /// Starts a lifecycle at `Requested`.
    pub fn new() -> Self {
        Self {
            state: InstanceState::Requested,
            history: vec![InstanceState::Requested],
        }
    }

    /// Current state.
    pub fn state(&self) -> InstanceState {
        self.state
    }

    /// All states visited, in order.
    pub fn history(&self) -> &[InstanceState] {
        &self.history
    }

    /// Attempts a transition.
    pub fn advance(&mut self, to: InstanceState) -> Result<(), IllegalTransition> {
        if self.state.successors().contains(&to) {
            self.state = to;
            self.history.push(to);
            Ok(())
        } else {
            Err(IllegalTransition {
                from: self.state,
                to,
            })
        }
    }

    /// Drives the lifecycle through a whole path.
    pub fn advance_all(
        &mut self,
        path: impl IntoIterator<Item = InstanceState>,
    ) -> Result<(), IllegalTransition> {
        for s in path {
            self.advance(s)?;
        }
        Ok(())
    }

    /// The canonical path of a component started the given way, from
    /// `Requested` to `Done`.
    pub fn canonical_path(kind: crate::sched::StartKind) -> Vec<InstanceState> {
        use InstanceState::*;
        match kind {
            // Warm: component paired during preparation.
            crate::sched::StartKind::Warm => vec![
                Booting,
                LoadingRuntimes,
                LoadingComponent,
                Ready,
                LoadingComponent,
                Executing,
                Writing,
                Done,
            ],
            // Hot: runtimes only; component attaches at invocation.
            crate::sched::StartKind::Hot => vec![
                Booting,
                LoadingRuntimes,
                Ready,
                LoadingComponent,
                Executing,
                Writing,
                Done,
            ],
            // Cold: everything at invocation, no pooled dwell.
            crate::sched::StartKind::Cold => vec![
                Booting,
                LoadingRuntimes,
                LoadingComponent,
                Executing,
                Writing,
                Done,
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::StartKind;

    #[test]
    fn canonical_paths_are_legal() {
        for kind in [StartKind::Warm, StartKind::Hot, StartKind::Cold] {
            let mut lc = InstanceLifecycle::new();
            lc.advance_all(InstanceLifecycle::canonical_path(kind))
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(lc.state(), InstanceState::Done);
            assert!(lc.state().is_terminal());
        }
    }

    #[test]
    fn unused_pool_instance_terminates_legally() {
        let mut lc = InstanceLifecycle::new();
        lc.advance_all([
            InstanceState::Booting,
            InstanceState::LoadingRuntimes,
            InstanceState::Ready,
            InstanceState::Terminated,
        ])
        .unwrap();
        assert!(lc.state().is_terminal());
    }

    #[test]
    fn illegal_transitions_rejected() {
        let mut lc = InstanceLifecycle::new();
        // Cannot execute before booting.
        let err = lc.advance(InstanceState::Executing).unwrap_err();
        assert_eq!(err.from, InstanceState::Requested);
        assert_eq!(err.to, InstanceState::Executing);
        assert!(err.to_string().contains("illegal"));
        // State unchanged after a rejected transition.
        assert_eq!(lc.state(), InstanceState::Requested);
    }

    #[test]
    fn terminal_states_are_sinks() {
        let mut lc = InstanceLifecycle::new();
        lc.advance_all(InstanceLifecycle::canonical_path(StartKind::Cold))
            .unwrap();
        assert!(lc.advance(InstanceState::Ready).is_err());
        assert!(lc.advance(InstanceState::Booting).is_err());
    }

    #[test]
    fn history_records_every_state() {
        let mut lc = InstanceLifecycle::new();
        lc.advance_all(InstanceLifecycle::canonical_path(StartKind::Hot))
            .unwrap();
        assert_eq!(lc.history().len(), 8); // Requested + 7 steps
        assert_eq!(lc.history()[0], InstanceState::Requested);
        assert_eq!(*lc.history().last().unwrap(), InstanceState::Done);
    }

    #[test]
    fn successors_are_consistent() {
        // Every successor's own successors are reachable (no dangling
        // states except terminals).
        use InstanceState::*;
        for s in [
            Requested,
            Booting,
            LoadingRuntimes,
            Ready,
            LoadingComponent,
            Executing,
            Writing,
            Done,
            Terminated,
        ] {
            if !s.is_terminal() {
                assert!(!s.successors().is_empty(), "{} has no successors", s.name());
            } else {
                assert!(s.successors().is_empty());
            }
        }
    }
}
