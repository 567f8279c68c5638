//! L8 — every `pub` item earns its place.
//!
//! The engineering model lets objects meet only at declared interfaces; an
//! exported item that no other file names is interface the workspace
//! maintains for no caller. L8 flags a `pub` item or method in a crate's
//! `src/` (outside test regions) whose name appears as a code token in no
//! other workspace file. The integration tests, examples and the
//! repository benchmark count as use sites ([`Workspace::use_sites`]), so
//! an item they call keeps its `pub`. Restricted visibility (`pub(crate)`,
//! `pub(super)`), fields, `pub use` re-exports and `pub mod` are out of
//! scope.

use super::Violation;
use crate::lexer::{TokKind, Token};
use crate::model::{Area, Workspace};
use std::collections::{HashMap, HashSet};

/// Keywords that may sit between `pub` and the item keyword.
const QUALIFIERS: [&str; 4] = ["async", "unsafe", "extern", "mut"];
/// Item keywords whose following identifier is the item's name.
const ITEMS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "union",
];

pub fn check(ws: &Workspace, out: &mut Vec<Violation>) {
    // For each identifier, how many files name it as code.
    let mut named_by: HashMap<&str, usize> = HashMap::new();
    for file in ws.files.iter().chain(&ws.use_sites) {
        let idents: HashSet<&str> = file
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        for name in idents {
            *named_by.entry(name).or_insert(0) += 1;
        }
    }
    for file in &ws.files {
        if file.area != Area::Src {
            continue;
        }
        let code = file.code();
        for i in 0..code.len() {
            if code[i].text != "pub" || file.is_test_line(code[i].line) {
                continue;
            }
            let Some((kind, name)) = pub_item(&code, i) else {
                continue;
            };
            // The declaring file names it once; any other file makes two.
            if named_by.get(name.text.as_str()).copied().unwrap_or(0) > 1 {
                continue;
            }
            out.push(Violation {
                rule: "L8",
                path: file.rel_path.clone(),
                line: code[i].line,
                krate: file.crate_name.clone(),
                message: format!("`pub {kind} {}` is named by no other file", name.text),
                hint: "demote it to `pub(crate)` or private, delete it if \
                       nothing calls it, or annotate with \
                       `// odp-lint: allow(l8, reason = ...)` naming the public \
                       signature or DESIGN §1 concept that needs it"
                    .to_owned(),
            });
        }
    }
}

/// The item keyword and name token of an unrestricted `pub` item at `i`:
/// `pub [const] [async] [unsafe] [extern "abi"] fn name`, `pub struct
/// name`, `pub static [mut] name`, and so on. `None` for fields, `pub use`,
/// `pub mod` and restricted visibility.
fn pub_item<'t>(code: &[&'t Token], i: usize) -> Option<(&'t str, &'t Token)> {
    let mut kind = None;
    for t in code.get(i + 1..)? {
        match t.kind {
            // `pub const fn name`: the last keyword is the item's kind.
            TokKind::Ident if ITEMS.contains(&t.text.as_str()) => kind = Some(t.text.as_str()),
            TokKind::Ident if QUALIFIERS.contains(&t.text.as_str()) => {}
            // The ABI string of `extern "C"`.
            TokKind::Literal => {}
            TokKind::Ident => return kind.filter(|_| t.text != "_").map(|k| (k, *t)),
            _ => return None,
        }
    }
    None
}
