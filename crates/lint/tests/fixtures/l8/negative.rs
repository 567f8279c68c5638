//@ crate: core
// Fixture: the one unrestricted `pub` item and its method are named by the
// use-site fixture, the way `benchmark/src` names the core API; restricted
// visibility, fields, re-exports, modules and test regions are out of scope.
pub use std::fmt::Write as L8Reexport;

pub mod l8_module {}

pub struct L8UsedByTheBenchmark {
    pub l8_field: u32,
}

impl L8UsedByTheBenchmark {
    pub const fn l8_used_method(&self) -> u32 {
        self.l8_field
    }
}

pub(crate) fn l8_crate_only() {}

pub(super) fn l8_parent_only() {}

#[cfg(test)]
mod tests {
    pub fn l8_test_helper() {}
}
