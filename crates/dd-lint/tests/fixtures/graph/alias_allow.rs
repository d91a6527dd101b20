//! Graph fixture: the same aliased allocations as `alias_deny.rs`, each
//! with a documented justification — dd-lint must stay silent.

use crate::emit::{self as obs};
use crate::emit as ev;
use crate::emit::label as name_of;

pub struct Des;

impl Des {
    pub fn pop_loop(&mut self) {
        obs::component(7);
        ev::attempt(7);
        name_of(7);
    }
}

mod emit {
    pub fn component(n: u32) -> String {
        // dd-lint: allow(hot-path-alloc): runs once per run when the outcome is sealed, not per event
        format!("component {n}")
    }

    pub fn attempt(n: u32) -> String {
        // dd-lint: allow(hot-path-alloc): runs once per run when the outcome is sealed, not per event
        format!("attempt {n}")
    }

    pub fn label(n: u32) -> String {
        // dd-lint: allow(hot-path-alloc): runs once per run when the outcome is sealed, not per event
        format!("label {n}")
    }
}
