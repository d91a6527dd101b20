//! Effect fixture: `Planner::plan` is pinned `⊑ pure` by the test's
//! effect-contract, but it reaches a wall clock through `stamp` — the
//! contract silently strengthened, so dd-lint must report it at the
//! definition with the call path to the clock read.

pub struct Planner;

impl Planner {
    pub fn plan(&self) -> u64 {
        stamp()
    }
}

fn stamp() -> u64 {
    let started = std::time::Instant::now();
    started.elapsed().as_nanos() as u64
}
