//! Fixture tests: every rule is pinned by a positive fixture (must fire),
//! a negative fixture (must stay silent), and an allow fixture (fires, but
//! the `// odp-lint: allow(...)` escape hatch suppresses it). Fixtures are
//! data under `tests/fixtures/<rule>/`, not compiled code — each file's
//! first line is a `//@ crate: <name>` header naming the crate the lint
//! should believe it lives in, so scope rules (L1's core/net/wire/groups,
//! L3's transport exemption) are exercised for real.

use odp_lint::model::{Area, SourceFile, Workspace};
use odp_lint::rules::{self, Report};

/// Loads one fixture file as a synthetic workspace member.
fn fixture(rule: &str, name: &str) -> SourceFile {
    let path = format!(
        "{}/tests/fixtures/{rule}/{name}.rs",
        env!("CARGO_MANIFEST_DIR")
    );
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let crate_name = src
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("//@ crate:"))
        .map(str::trim)
        .unwrap_or_else(|| panic!("{path}: missing `//@ crate:` header"))
        .to_owned();
    let rel = format!("crates/{crate_name}/src/{rule}_{name}.rs");
    SourceFile::parse(&rel, &crate_name, Area::Src, &src)
}

/// Runs the whole engine over the given fixtures and keeps only `rule`'s
/// violations — fixtures may trip other rules incidentally (an unwrap in
/// an L2 fixture), and that noise must not couple the corpora.
fn run(rule: &str, names: &[&str]) -> Report {
    let files = names.iter().map(|n| fixture(rule, n)).collect();
    let mut report = rules::run_all(&Workspace { files });
    let upper = rule.to_ascii_uppercase();
    report.violations.retain(|v| v.rule == upper);
    report
}

fn count(rule: &str, name: &str) -> usize {
    run(rule, &[name]).violations.len()
}

// ---- L1: no panic paths in core/net/wire/groups --------------------------

#[test]
fn l1_positive_flags_index_unwrap_expect_panic() {
    let report = run("l1", &["positive"]);
    assert_eq!(report.violations.len(), 4, "{:#?}", report.violations);
    let msgs: Vec<&str> = report
        .violations
        .iter()
        .map(|v| v.message.as_str())
        .collect();
    assert!(msgs.iter().any(|m| m.contains("unwrap")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("expect")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("panic")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("index")), "{msgs:?}");
}

#[test]
fn l1_negative_is_silent_including_test_regions() {
    assert_eq!(count("l1", "negative"), 0);
}

#[test]
fn l1_out_of_scope_crate_is_exempt() {
    assert_eq!(count("l1", "out_of_scope"), 0);
}

#[test]
fn l1_allow_suppresses() {
    assert_eq!(count("l1", "allowed"), 0);
}

// ---- L2: lock discipline -------------------------------------------------

#[test]
fn l2_positive_flags_send_under_lock_and_order_cycle() {
    let report = run("l2", &["positive"]);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("held across")),
        "{:#?}",
        report.violations
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("lock-order cycle")),
        "{:#?}",
        report.violations
    );
    assert_eq!(
        report.lock_graph.cycles.len(),
        1,
        "{:?}",
        report.lock_graph.cycles
    );
}

#[test]
fn l2_negative_release_before_send_is_silent() {
    let report = run("l2", &["negative"]);
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
    assert!(report.lock_graph.cycles.is_empty());
    // The consistent a→b order still appears in the graph — clean is a
    // positive claim about edges, not an empty graph.
    assert!(!report.lock_graph.edges.is_empty());
}

#[test]
fn l2_allow_suppresses() {
    assert_eq!(count("l2", "allowed"), 0);
}

// ---- L3: no blocking outside the transport -------------------------------

#[test]
fn l3_positive_flags_sleep_and_raw_socket() {
    let report = run("l3", &["positive"]);
    assert_eq!(report.violations.len(), 2, "{:#?}", report.violations);
}

#[test]
fn l3_transport_crate_is_exempt() {
    assert_eq!(count("l3", "negative"), 0);
}

#[test]
fn l3_allow_suppresses() {
    assert_eq!(count("l3", "allowed"), 0);
}

// ---- L4: wire-tag exhaustiveness -----------------------------------------

#[test]
fn l4_positive_reports_each_incomplete_tag() {
    let report = run("l4", &["positive"]);
    assert_eq!(report.violations.len(), 2, "{:#?}", report.violations);
    let ping = report
        .violations
        .iter()
        .find(|v| v.message.contains("PING"))
        .expect("PING violation");
    assert!(ping.message.contains("test mention"), "{}", ping.message);
    assert!(!ping.message.contains("decode arm"), "{}", ping.message);
    let pong = report
        .violations
        .iter()
        .find(|v| v.message.contains("PONG"))
        .expect("PONG violation");
    assert!(pong.message.contains("decode arm"), "{}", pong.message);
    assert!(pong.message.contains("test mention"), "{}", pong.message);
}

#[test]
fn l4_negative_full_coverage_is_silent() {
    assert_eq!(count("l4", "negative"), 0);
}

#[test]
fn l4_allow_file_suppresses() {
    assert_eq!(count("l4", "allowed"), 0);
}

// ---- L5: telemetry coverage of layer entry points ------------------------

#[test]
fn l5_positive_flags_untraced_entry_point() {
    let report = run("l5", &["positive"]);
    assert_eq!(report.violations.len(), 1, "{:#?}", report.violations);
    assert!(report.violations[0].message.contains("fn invoke"));
}

#[test]
fn l5_negative_marker_in_file_is_silent() {
    assert_eq!(count("l5", "negative"), 0);
}

#[test]
fn l5_allow_file_suppresses() {
    assert_eq!(count("l5", "allowed"), 0);
}

// ---- L6: no discarded Result in core/net ---------------------------------

#[test]
fn l6_positive_flags_let_underscore() {
    assert_eq!(count("l6", "positive"), 1);
}

#[test]
fn l6_negative_handled_error_and_test_region_are_silent() {
    assert_eq!(count("l6", "negative"), 0);
}

#[test]
fn l6_allow_suppresses() {
    assert_eq!(count("l6", "allowed"), 0);
}

// ---- L7: no unbounded channels on hot paths ------------------------------

#[test]
fn l7_positive_flags_unbounded_and_std_mpsc() {
    assert_eq!(count("l7", "positive"), 3);
}

#[test]
fn l7_negative_bounded_is_silent() {
    assert_eq!(count("l7", "negative"), 0);
}

#[test]
fn l7_allow_suppresses() {
    assert_eq!(count("l7", "allowed"), 0);
}
