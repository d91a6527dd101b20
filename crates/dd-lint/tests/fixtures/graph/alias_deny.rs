//! Graph fixture: per-event allocations reached only through `use`
//! aliases of the module that defines them.

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
        format!("component {n}")
    }

    pub fn attempt(n: u32) -> String {
        format!("attempt {n}")
    }

    pub fn label(n: u32) -> String {
        format!("label {n}")
    }
}
