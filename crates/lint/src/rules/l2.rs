//! L2 — lock discipline.
//!
//! The engineering model serializes capsule state behind `parking_lot`
//! locks; two invariants keep that sound. First, the cross-crate
//! *lock-order graph* (an edge `A → B` wherever `B` is acquired while `A`
//! is held) must be acyclic, or two nodes can deadlock each other through
//! the nucleus. Second, a lock must not be held across a channel send or
//! wire I/O call: those block on backpressure, and a blocked holder stalls
//! every other thread contending the lock. A send can also run the
//! receiver's frame sink on the sending thread (SimNet's zero-delay path),
//! so a sink that needs the same lock deadlocks its own sender.
//!
//! Heuristics (DESIGN.md §8 documents the precision trade): a lock
//! identity is `crate/receiver-ident`, so two same-named fields in one
//! crate share a node (conservative: may merge, never misses); guards
//! bound by `let` live to end of scope or `drop(guard)`, bare
//! `x.lock().f()` temporaries live to the end of the statement.

use super::{method_call, receiver_name, zero_args, LockGraph, Violation};
use crate::lexer::TokKind;
use crate::model::{Area, SourceFile, Workspace};

const ACQUIRE: [&str; 3] = ["lock", "read", "write"];
const BLOCKING_CALLS: [&str; 9] = [
    "send",
    "try_send",
    "recv",
    "recv_timeout",
    "try_recv",
    "send_frame",
    "write_all",
    "read_exact",
    "flush",
];

struct Guard {
    lock_id: String,
    binding: Option<String>,
    depth: u32,
    /// Statement-temporary guard: dies at the next `;`.
    temp: bool,
}

pub fn check(ws: &Workspace, out: &mut Vec<Violation>) -> LockGraph {
    let mut edges: Vec<(String, String, String, u32)> = Vec::new();
    for file in &ws.files {
        if file.area != Area::Src {
            continue;
        }
        scan_file(file, &mut edges, out);
    }

    // Dedup edges by (held, acquired) for the graph; keep first site.
    let mut seen = std::collections::BTreeSet::new();
    let mut graph_edges = Vec::new();
    for e in &edges {
        if e.0 != e.1 && seen.insert((e.0.clone(), e.1.clone())) {
            graph_edges.push(e.clone());
        }
    }
    let mut nodes: Vec<String> = seen
        .iter()
        .flat_map(|(a, b)| [a.clone(), b.clone()])
        .collect();
    nodes.sort();
    nodes.dedup();

    let cycles = find_cycles(&nodes, &graph_edges);
    for cycle in &cycles {
        let site = graph_edges
            .iter()
            .find(|(a, _, _, _)| Some(a) == cycle.first());
        let (path, line) = site.map_or((String::new(), 0), |(_, _, p, l)| (p.clone(), *l));
        let krate = cycle
            .first()
            .and_then(|id| id.split('/').next())
            .unwrap_or("")
            .to_owned();
        out.push(Violation {
            rule: "L2",
            path,
            line,
            krate,
            message: format!("lock-order cycle: {}", cycle.join(" -> ")),
            hint: "impose a single acquisition order (document it on the lock \
                   fields) or collapse the locks into one"
                .to_owned(),
        });
    }

    LockGraph {
        nodes,
        edges: graph_edges,
        cycles,
    }
}

fn scan_file(
    file: &SourceFile,
    edges: &mut Vec<(String, String, String, u32)>,
    out: &mut Vec<Violation>,
) {
    let code = file.code();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: u32 = 0;
    let mut i = 0;
    while i < code.len() {
        let t = code[i];
        match t.punct() {
            Some('{') => depth += 1,
            Some('}') => {
                depth = depth.saturating_sub(1);
                // Scope exit ends let-bound guards below it AND statement
                // temporaries (a tail expression's guard dies with its
                // block even though no `;` follows it).
                guards.retain(|g| g.depth <= depth);
            }
            Some(';') => guards.retain(|g| !g.temp),
            _ => {}
        }
        // drop(guard) releases a named guard early.
        if t.kind == TokKind::Ident
            && t.text == "drop"
            && code.get(i + 1).and_then(|x| x.punct()) == Some('(')
        {
            if let Some(arg) = code.get(i + 2) {
                guards.retain(|g| g.binding.as_deref() != Some(arg.text.as_str()));
            }
        }
        if t.punct() == Some('.') {
            if let Some(name) = code.get(i + 1).map(|x| x.text.as_str()) {
                let is_acquire = ACQUIRE.contains(&name)
                    && method_call(&code, i, name).is_some_and(|open| zero_args(&code, open));
                if is_acquire && !file.is_test_line(t.line) {
                    if let Some(recv) = receiver_name(&code, i) {
                        let lock_id = format!("{}/{}", file.crate_name, recv);
                        for g in &guards {
                            edges.push((
                                g.lock_id.clone(),
                                lock_id.clone(),
                                file.rel_path.clone(),
                                t.line,
                            ));
                        }
                        // `let g = x.lock();` binds the guard; a chained
                        // `let v = x.lock().clone();` binds the *result*
                        // and the guard is a statement temporary.
                        let chained = method_call(&code, i, name).is_some_and(|open| {
                            code.get(open + 2).and_then(|t| t.punct()) == Some('.')
                        });
                        let binding = if chained { None } else { let_binding(&code, i) };
                        guards.push(Guard {
                            lock_id,
                            temp: binding.is_none(),
                            binding,
                            depth,
                        });
                    }
                } else if BLOCKING_CALLS.contains(&name)
                    && method_call(&code, i, name).is_some()
                    && !file.is_test_line(t.line)
                {
                    // `.read()`/`.write()` with args are I/O, zero-arg are
                    // lock acquisitions handled above; BLOCKING_CALLS names
                    // never overlap ACQUIRE so no ambiguity here.
                    if let Some(g) = guards.last() {
                        out.push(Violation {
                            rule: "L2",
                            path: file.rel_path.clone(),
                            line: t.line,
                            krate: file.crate_name.clone(),
                            message: format!(
                                "lock `{}` held across `.{name}(..)` (channel \
                                 send / wire I/O can block on backpressure)",
                                g.lock_id
                            ),
                            hint: "drop the guard before the blocking call \
                                   (clone what the call needs), or annotate \
                                   with `// odp-lint: allow(l2, reason = ...)` \
                                   if the channel is provably non-blocking"
                                .to_owned(),
                        });
                    }
                }
            }
        }
        i += 1;
    }
}

/// If the statement containing the `.` at `dot` starts with `let [mut] x`,
/// returns `x` (guard names bound to `_` count as temporaries).
fn let_binding(code: &[&crate::lexer::Token], dot: usize) -> Option<String> {
    // Walk back to the statement opener.
    let mut i = dot;
    while i > 0 {
        let p = code[i - 1].punct();
        if matches!(p, Some(';' | '{' | '}')) {
            break;
        }
        i -= 1;
    }
    if code.get(i)?.text != "let" {
        return None;
    }
    let mut j = i + 1;
    if code.get(j)?.text == "mut" {
        j += 1;
    }
    let name = &code.get(j)?.text;
    if code.get(j)?.kind != TokKind::Ident || name == "_" {
        return None;
    }
    // `let v = *x.lock();` binds the dereferenced copy — the guard itself
    // is a statement temporary, not `v`.
    if code.get(j + 1).and_then(|t| t.punct()) == Some('=')
        && code.get(j + 2).and_then(|t| t.punct()) == Some('*')
    {
        return None;
    }
    Some(name.to_string())
}

/// Tarjan-free cycle finder: every strongly connected component with more
/// than one node is reported as one cycle (self-edges are excluded up
/// front; same-named locks on different instances make them pure noise).
fn find_cycles(nodes: &[String], edges: &[(String, String, String, u32)]) -> Vec<Vec<String>> {
    use std::collections::BTreeMap;
    let index: BTreeMap<&str, usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let mut adj = vec![Vec::new(); nodes.len()];
    for (a, b, _, _) in edges {
        if let (Some(&ia), Some(&ib)) = (index.get(a.as_str()), index.get(b.as_str())) {
            adj[ia].push(ib);
        }
    }
    // Kosaraju: order by finish time, then assign components on the
    // transpose.
    let mut order = Vec::with_capacity(nodes.len());
    let mut visited = vec![false; nodes.len()];
    for start in 0..nodes.len() {
        if visited[start] {
            continue;
        }
        // Iterative post-order DFS.
        let mut stack = vec![(start, 0usize)];
        visited[start] = true;
        while let Some(&mut (v, ref mut ei)) = stack.last_mut() {
            if *ei < adj[v].len() {
                let w = adj[v][*ei];
                *ei += 1;
                if !visited[w] {
                    visited[w] = true;
                    stack.push((w, 0));
                }
            } else {
                order.push(v);
                stack.pop();
            }
        }
    }
    let mut radj = vec![Vec::new(); nodes.len()];
    for (v, ws) in adj.iter().enumerate() {
        for &w in ws {
            radj[w].push(v);
        }
    }
    let mut comp = vec![usize::MAX; nodes.len()];
    let mut ncomp = 0;
    for &v in order.iter().rev() {
        if comp[v] != usize::MAX {
            continue;
        }
        let mut stack = vec![v];
        comp[v] = ncomp;
        while let Some(x) = stack.pop() {
            for &w in &radj[x] {
                if comp[w] == usize::MAX {
                    comp[w] = ncomp;
                    stack.push(w);
                }
            }
        }
        ncomp += 1;
    }
    let mut groups: Vec<Vec<String>> = vec![Vec::new(); ncomp];
    for (v, &c) in comp.iter().enumerate() {
        groups[c].push(nodes[v].clone());
    }
    groups.retain(|g| g.len() > 1);
    for g in &mut groups {
        g.sort();
    }
    groups.sort();
    groups
}
