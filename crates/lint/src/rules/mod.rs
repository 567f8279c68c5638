//! The ODP rule engine: eight rules over the lexed source model.
//!
//! Each rule encodes one engineering-model invariant (DESIGN.md §8 has the
//! full specifications). Rules emit [`Violation`]s; the engine filters them
//! through the per-file `// odp-lint: allow(...)` directives, so every
//! surviving diagnostic is either a defect or a missing justification.

use crate::model::Workspace;

pub mod l1;
pub mod l2;
pub mod l3;
pub mod l4;
pub mod l5;
pub mod l6;
pub mod l7;
pub mod l8;

/// One diagnostic: rule id, site, message, and a fix-it hint.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule id, e.g. `"L1"`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Crate directory name under `crates/`.
    pub krate: String,
    pub message: String,
    pub hint: String,
}

/// The cross-crate lock-order graph L2 derives, reported even when clean
/// (CI asserts "zero cycles" as a positive claim, not an absence of noise).
#[derive(Debug, Default)]
pub struct LockGraph {
    /// Distinct lock identities (`crate/receiver`).
    pub nodes: Vec<String>,
    /// `(held, acquired, path, line)` — acquired while `held` was held.
    pub edges: Vec<(String, String, String, u32)>,
    /// Each cycle as the list of lock identities along it.
    pub cycles: Vec<Vec<String>>,
}

/// Everything one lint run produces.
#[derive(Debug)]
pub struct Report {
    pub violations: Vec<Violation>,
    pub lock_graph: LockGraph,
    /// Per crate: non-blank `src/` lines outside test regions.
    pub lines: std::collections::BTreeMap<String, u64>,
}

/// Runs every rule over the workspace and applies allow directives.
#[must_use]
pub fn run_all(ws: &Workspace) -> Report {
    let mut violations = Vec::new();
    l1::check(ws, &mut violations);
    let lock_graph = l2::check(ws, &mut violations);
    l3::check(ws, &mut violations);
    l4::check(ws, &mut violations);
    l5::check(ws, &mut violations);
    l6::check(ws, &mut violations);
    l7::check(ws, &mut violations);
    l8::check(ws, &mut violations);

    violations.retain(|v| {
        let rule = v.rule.to_ascii_lowercase();
        !ws.files
            .iter()
            .find(|f| f.rel_path == v.path)
            .is_some_and(|f| f.is_allowed(&rule, v.line))
    });
    violations.sort_by(|a, b| (a.rule, &a.path, a.line).cmp(&(b.rule, &b.path, b.line)));
    let mut lines = std::collections::BTreeMap::new();
    for f in &ws.files {
        *lines.entry(f.crate_name.clone()).or_insert(0) += f.code_lines();
    }
    Report {
        violations,
        lock_graph,
        lines,
    }
}

/// Per `rule/crate` violation counts, the ratchet's unit of account.
#[must_use]
pub fn counts(violations: &[Violation]) -> std::collections::BTreeMap<String, u64> {
    let mut map = std::collections::BTreeMap::new();
    for v in violations {
        *map.entry(format!("{}/{}", v.rule, v.krate)).or_insert(0u64) += 1;
    }
    map
}

// ---- shared token-walk helpers -------------------------------------------

use crate::lexer::{TokKind, Token};

/// Whether `code[i..]` starts a `.name(` method call; returns the index of
/// the opening paren.
pub(crate) fn method_call(code: &[&Token], i: usize, name: &str) -> Option<usize> {
    if code.get(i)?.punct()? == '.'
        && code.get(i + 1)?.kind == TokKind::Ident
        && code.get(i + 1)?.text == name
        && code.get(i + 2)?.punct()? == '('
    {
        Some(i + 2)
    } else {
        None
    }
}

/// Whether the call opening at `open` (index of `(`) has zero arguments.
pub(crate) fn zero_args(code: &[&Token], open: usize) -> bool {
    code.get(open + 1).and_then(|t| t.punct()) == Some(')')
}

/// The receiver identifier of a method call whose `.` sits at `dot`:
/// the nearest identifier walking left, skipping closing brackets (so
/// `self.slots[i].capsule.lock()` names `capsule`).
pub(crate) fn receiver_name<'t>(code: &[&'t Token], dot: usize) -> Option<&'t str> {
    let mut i = dot;
    while i > 0 {
        i -= 1;
        let t = code[i];
        match t.kind {
            TokKind::Ident => return Some(&t.text),
            TokKind::Punct => match t.punct() {
                Some(')' | ']') | Some('.') => continue,
                _ => return None,
            },
            _ => return None,
        }
    }
    None
}

/// Whether `code[i]` is the macro invocation `name!`.
pub(crate) fn is_macro(code: &[&Token], i: usize, name: &str) -> bool {
    code[i].kind == TokKind::Ident
        && code[i].text == name
        && code.get(i + 1).and_then(|t| t.punct()) == Some('!')
}

/// Whether the sequence at `i` is `a :: b` (two single-char colon puncts).
pub(crate) fn is_path_seq(code: &[&Token], i: usize, a: &str, b: &str) -> bool {
    code[i].kind == TokKind::Ident
        && code[i].text == a
        && code.get(i + 1).and_then(|t| t.punct()) == Some(':')
        && code.get(i + 2).and_then(|t| t.punct()) == Some(':')
        && code
            .get(i + 3)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == b)
}
