//! L3 — no blocking calls outside the transport layer.
//!
//! Layers above the transport run on shared, bounded threads: a capsule's
//! REX workers, a caller's own thread, SimNet's delivering thread. A stray
//! `thread::sleep` there stalls every call queued behind it, and a raw
//! `TcpStream` bypasses the `odp_net::Transport` contract, so SimNet's
//! latency, loss and partition injection never sees that traffic. Blocking
//! is the transport's job (`crates/net` owns the sockets and its worker
//! threads may park); the chaos harness (`crates/chaos`) is exempt because
//! injecting real time is its purpose.
//! `odp-lint` itself is exempt as a build-time tool that never runs inside
//! a capsule.

use super::{is_path_seq, Violation};
use crate::lexer::TokKind;
use crate::model::{Area, Workspace};

const EXEMPT: [&str; 3] = ["net", "chaos", "lint"];

pub fn check(ws: &Workspace, out: &mut Vec<Violation>) {
    for file in &ws.files {
        if EXEMPT.contains(&file.crate_name.as_str()) || file.area != Area::Src {
            continue;
        }
        let code = file.code();
        for i in 0..code.len() {
            let line = code[i].line;
            if file.is_test_line(line) {
                continue;
            }
            if is_path_seq(&code, i, "thread", "sleep") {
                out.push(Violation {
                    rule: "L3",
                    path: file.rel_path.clone(),
                    line,
                    krate: file.crate_name.clone(),
                    message: "`thread::sleep` blocks the calling capsule thread".to_owned(),
                    hint: "use a deadline-aware wait (condvar `wait_for`, channel \
                           `recv_timeout`) or push the delay into the transport; \
                           annotate with `// odp-lint: allow(l3, reason = ...)` \
                           for deliberate pacing"
                        .to_owned(),
                });
            }
            if code[i].kind == TokKind::Ident && code[i].text == "TcpStream" {
                out.push(Violation {
                    rule: "L3",
                    path: file.rel_path.clone(),
                    line,
                    krate: file.crate_name.clone(),
                    message: "direct `TcpStream` use outside the transport layer".to_owned(),
                    hint: "route I/O through `odp_net::Transport`, so every socket \
                           sits behind the contract the simulated network fakes"
                        .to_owned(),
                });
            }
        }
    }
}
