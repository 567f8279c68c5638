//! odp-lint — the in-tree ODP conformance and concurrency gate.
//!
//! The paper's transparencies (access, location, replication, failure,
//! federation) only hold if every engineering object obeys the same
//! channel/capsule discipline; PR 1/2/5 enforced that by hand-auditing.
//! This crate turns the audit into tooling: a dependency-free Rust lexer
//! ([`lexer`]), a per-file source model with test-region and
//! allow-directive tracking ([`model`]), eight ODP rules ([`rules`]), and
//! a monotone violation ratchet ([`ratchet`]) wired into CI.
//!
//! Rule summary (full specs in DESIGN.md §8):
//!
//! | id | invariant |
//! |----|-----------|
//! | L1 | no `unwrap`/`expect`/`panic!`/slice-index on hot paths |
//! | L2 | acyclic lock-order graph; no lock held across send/wire I/O |
//! | L3 | no blocking calls outside the transport layer |
//! | L4 | every wire tag has encode site + decode arm + test mention |
//! | L5 | layer entry points create or inherit a telemetry span |
//! | L6 | no discarded `Result` (`let _ =`) in `core`/`net` |
//! | L7 | no unbounded channel constructors on hot paths |
//! | L8 | every `pub` item in `src/` is named by some other workspace file |
//!
//! Escape hatch: `// odp-lint: allow(<rule>, reason = "...")` on the
//! violating line or the line above, or `allow-file(<rule>, ...)` for the
//! whole file. The reason is mandatory: a directive without one is
//! malformed and allows nothing.

pub mod lexer;
pub mod model;
pub mod ratchet;
pub mod report;
pub mod rules;

pub use model::Workspace;
pub use rules::{run_all, Report, Violation};

/// Lints the workspace rooted at `root` (the directory holding `crates/`).
///
/// # Errors
///
/// I/O errors from walking or reading the source tree.
pub fn lint_workspace(root: &std::path::Path) -> std::io::Result<Report> {
    Ok(run_all(&Workspace::load(root)?))
}
