//! L7 — no unbounded channels on hot paths.
//!
//! An unbounded queue between engineering objects converts backpressure
//! into unbounded memory growth: a slow consumer (a partitioned peer, a
//! stalled servant) silently buffers the producer's entire output. Hot
//! paths (`core`, `net`, `wire`, `groups`, `streams`) must size their
//! channels; deliberately unbounded queues (e.g. a simulator's in-memory
//! fabric, where the scheduler itself bounds occupancy) carry an allow
//! annotation saying what bounds them.

use super::{is_path_seq, Violation};
use crate::lexer::Token;
use crate::model::{Area, Workspace};

const SCOPE: [&str; 5] = ["core", "net", "wire", "groups", "streams"];

pub fn check(ws: &Workspace, out: &mut Vec<Violation>) {
    for file in &ws.files {
        if !SCOPE.contains(&file.crate_name.as_str()) || file.area != Area::Src {
            continue;
        }
        let code = file.code();
        for i in 0..code.len() {
            let line = code[i].line;
            if file.is_test_line(line) {
                continue;
            }
            let unbounded_call = code[i].text == "unbounded" && opens_call(&code, i + 1);
            let std_mpsc = is_path_seq(&code, i, "mpsc", "channel");
            if unbounded_call || std_mpsc {
                out.push(Violation {
                    rule: "L7",
                    path: file.rel_path.clone(),
                    line,
                    krate: file.crate_name.clone(),
                    message: "unbounded channel constructor on a hot path".to_owned(),
                    hint: "use `bounded(n)` sized to the protocol window; if \
                           occupancy is bounded elsewhere, annotate with \
                           `// odp-lint: allow(l7, reason = ...)` naming the bound"
                        .to_owned(),
                });
            }
        }
    }
}

/// Whether `code[i..]` opens a call's argument list: `(` directly, or a
/// turbofish `::<…>` first (`unbounded::<Job>()`).
fn opens_call(code: &[&Token], mut i: usize) -> bool {
    let punct = |i: usize| code.get(i).and_then(|t| t.punct());
    if punct(i) == Some(':') && punct(i + 1) == Some(':') && punct(i + 2) == Some('<') {
        let mut depth = 0usize;
        i += 2;
        loop {
            match punct(i) {
                Some('<') => depth += 1,
                Some('>') => depth -= 1,
                None if i >= code.len() => return false,
                _ => {}
            }
            i += 1;
            if depth == 0 {
                break;
            }
        }
    }
    punct(i) == Some('(')
}
