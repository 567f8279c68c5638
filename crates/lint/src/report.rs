//! Diagnostic rendering: human text and machine-readable JSON.

use crate::rules::{counts, Report};

/// Renders violations for terminals: `path:line: RULE: message` plus an
/// indented fix-it hint, then a per-`rule/crate` summary table, the lock
/// graph's size and a table of non-test lines per crate.
#[must_use]
pub fn human(report: &Report) -> String {
    let mut s = String::new();
    for v in &report.violations {
        s.push_str(&format!(
            "{}:{}: {}: {}\n    hint: {}\n",
            v.path, v.line, v.rule, v.message, v.hint
        ));
    }
    let counts = counts(&report.violations);
    if counts.is_empty() {
        s.push_str("odp-lint: no violations\n");
    } else {
        s.push_str("\nviolations by rule/crate:\n");
        for (k, n) in &counts {
            s.push_str(&format!("  {k:<24} {n}\n"));
        }
    }
    let g = &report.lock_graph;
    s.push_str(&format!(
        "lock-order graph: {} locks, {} edges, {} cycle(s)\n",
        g.nodes.len(),
        g.edges.len(),
        g.cycles.len()
    ));
    s.push_str("non-test lines by crate (src/, blank lines excluded):\n");
    for (krate, n) in &report.lines {
        s.push_str(&format!("  {krate:<24} {n}\n"));
    }
    let total: u64 = report.lines.values().sum();
    s.push_str(&format!("  {:<24} {total}\n", "total"));
    s
}

/// Renders the full report as JSON (hand-rolled; stable field order).
#[must_use]
pub fn json(report: &Report) -> String {
    let mut s = String::from("{\n  \"violations\": [\n");
    for (i, v) in report.violations.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"crate\": {}, \
             \"message\": {}, \"hint\": {}}}{}\n",
            quote(v.rule),
            quote(&v.path),
            v.line,
            quote(&v.krate),
            quote(&v.message),
            quote(&v.hint),
            if i + 1 < report.violations.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("  ],\n  \"counts\": {");
    let counts = counts(&report.violations);
    let entries: Vec<String> = counts
        .iter()
        .map(|(k, n)| format!("{}: {n}", quote(k)))
        .collect();
    s.push_str(&entries.join(", "));
    s.push_str("},\n");
    let g = &report.lock_graph;
    s.push_str(&format!(
        "  \"lock_graph\": {{\"nodes\": {}, \"edges\": {}, \"cycles\": [",
        g.nodes.len(),
        g.edges.len()
    ));
    let cycles: Vec<String> = g
        .cycles
        .iter()
        .map(|c| {
            let ids: Vec<String> = c.iter().map(|n| quote(n)).collect();
            format!("[{}]", ids.join(", "))
        })
        .collect();
    s.push_str(&cycles.join(", "));
    s.push_str("]}\n}\n");
    s
}

/// JSON string escaping for the characters that can appear in paths,
/// messages, and source-derived identifiers.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{LockGraph, Violation};

    fn sample() -> Report {
        Report {
            violations: vec![Violation {
                rule: "L1",
                path: "crates/core/src/a.rs".to_owned(),
                line: 3,
                krate: "core".to_owned(),
                message: "msg with \"quotes\"".to_owned(),
                hint: "hint".to_owned(),
            }],
            lock_graph: LockGraph::default(),
            lines: [("core".to_owned(), 120)].into(),
        }
    }

    #[test]
    fn human_contains_site_and_summary() {
        let text = human(&sample());
        assert!(text.contains("crates/core/src/a.rs:3: L1:"));
        assert!(text.contains("L1/core"));
        assert!(text.contains("  core                     120\n"), "{text}");
        assert!(text.contains("  total                    120\n"), "{text}");
    }

    #[test]
    fn json_escapes_quotes() {
        let text = json(&sample());
        assert!(text.contains("msg with \\\"quotes\\\""));
        assert!(text.contains("\"counts\": {\"L1/core\": 1}"));
    }
}
