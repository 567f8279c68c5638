//! The per-file source model rules run over: lexed tokens, test-region
//! line spans, and `// odp-lint: allow(...)` escape hatches.

use crate::lexer::{lex, TokKind, Token};
use std::path::{Path, PathBuf};

/// Where in a crate a file lives; decides whether L1-style "non-test code"
/// rules apply at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Area {
    /// `src/` — production code (unit-test regions excluded per line).
    Src,
    /// `tests/`, `benches/`, `examples/` — never production code.
    Test,
}

/// One scope granted by an allow directive.
#[derive(Debug, Clone)]
struct Allow {
    /// Lowercased rule id, e.g. `"l1"`.
    pub rule: String,
    /// The justification string (required; empty means malformed).
    pub reason: String,
    /// Line the directive sits on.
    pub line: u32,
    /// Whole-file scope (`allow-file`) instead of line scope.
    pub file_scope: bool,
}

/// A lexed source file plus the derived facts rules need.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root (diagnostics use this).
    pub rel_path: String,
    /// Crate directory name under `crates/` (e.g. `core`, `net`).
    pub crate_name: String,
    pub area: Area,
    pub tokens: Vec<Token>,
    /// Inclusive line spans that are test code (`#[cfg(test)]` mods,
    /// `#[test]` fns). Empty for `Area::Test` files (the whole file is).
    pub test_spans: Vec<(u32, u32)>,
    allows: Vec<Allow>,
}

impl SourceFile {
    /// Builds the model from source text.
    #[must_use]
    pub fn parse(rel_path: &str, crate_name: &str, area: Area, src: &str) -> SourceFile {
        let tokens = lex(src);
        let test_spans = if area == Area::Test {
            Vec::new()
        } else {
            find_test_spans(&tokens)
        };
        let allows = find_allows(&tokens);
        SourceFile {
            rel_path: rel_path.to_owned(),
            crate_name: crate_name.to_owned(),
            area,
            tokens,
            test_spans,
            allows,
        }
    }

    /// Whether `line` is test code (file area or an in-file test region).
    #[must_use]
    pub fn is_test_line(&self, line: u32) -> bool {
        self.area == Area::Test
            || self
                .test_spans
                .iter()
                .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// Whether `rule` is allowed at `line`: a file-scope directive, a
    /// directive on the same line, or one on the line directly above. A
    /// directive without a reason is malformed and allows nothing.
    #[must_use]
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allows.iter().any(|a| {
            a.rule == rule
                && !a.reason.trim().is_empty()
                && (a.file_scope || a.line == line || a.line + 1 == line)
        })
    }

    /// Non-blank lines outside test regions: the file's production size
    /// (0 for a test-area file).
    #[must_use]
    pub fn code_lines(&self) -> u64 {
        let mut lines = std::collections::BTreeSet::new();
        for t in self.tokens.iter().filter(|t| t.kind != TokKind::Whitespace) {
            let last = t.line + t.text.matches('\n').count() as u32;
            lines.extend(t.line..=last);
        }
        lines.into_iter().filter(|&l| !self.is_test_line(l)).count() as u64
    }

    /// Code tokens only (comments and whitespace stripped), for rules that
    /// match token sequences.
    #[must_use]
    pub fn code(&self) -> Vec<&Token> {
        self.tokens.iter().filter(|t| t.is_code()).collect()
    }
}

/// Finds `#[cfg(test)]`- and `#[test]`-guarded brace spans.
///
/// Strategy: when an attribute whose code tokens contain `test` appears,
/// the next top-of-item `{` opens a region; the span runs to its matching
/// `}`. Brace matching over the raw token stream is exact because the
/// lexer already removed braces inside strings/comments from play.
fn find_test_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let code: Vec<&Token> = tokens.iter().filter(|t| t.is_code()).collect();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].punct() == Some('#') && code.get(i + 1).and_then(|t| t.punct()) == Some('[') {
            // Collect the attribute body up to the matching ']'.
            let mut j = i + 2;
            let mut depth = 1u32;
            let mut is_test_attr = false;
            while j < code.len() && depth > 0 {
                match code[j].punct() {
                    Some('[') => depth += 1,
                    Some(']') => depth -= 1,
                    _ => {
                        if code[j].kind == TokKind::Ident && code[j].text == "test" {
                            is_test_attr = true;
                        }
                    }
                }
                j += 1;
            }
            if is_test_attr {
                // Skip further attributes, then find the item's body brace.
                let mut k = j;
                while k < code.len() && code[k].punct() != Some('{') {
                    // A `;` before any `{` means a braceless item
                    // (e.g. `#[cfg(test)] use ...;`) — no span.
                    if code[k].punct() == Some(';') {
                        break;
                    }
                    k += 1;
                }
                if k < code.len() && code[k].punct() == Some('{') {
                    let lo = code[i].line;
                    let mut brace = 1u32;
                    let mut m = k + 1;
                    while m < code.len() && brace > 0 {
                        match code[m].punct() {
                            Some('{') => brace += 1,
                            Some('}') => brace -= 1,
                            _ => {}
                        }
                        m += 1;
                    }
                    let hi = code.get(m.saturating_sub(1)).map_or(lo, |t| t.line);
                    spans.push((lo, hi));
                    i = m;
                    continue;
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    spans
}

/// Parses `// odp-lint: allow(<rule>, reason = "...")` and
/// `// odp-lint: allow-file(<rule>, reason = "...")` directives.
fn find_allows(tokens: &[Token]) -> Vec<Allow> {
    let mut out = Vec::new();
    for t in tokens {
        if t.kind != TokKind::LineComment {
            continue;
        }
        let body = t.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("odp-lint:") else {
            continue;
        };
        let rest = rest.trim();
        let (file_scope, rest) = if let Some(r) = rest.strip_prefix("allow-file") {
            (true, r)
        } else if let Some(r) = rest.strip_prefix("allow") {
            (false, r)
        } else {
            continue;
        };
        let Some(inner) = rest
            .trim()
            .strip_prefix('(')
            .and_then(|r| r.rfind(')').map(|i| &r[..i]))
        else {
            continue;
        };
        let mut parts = inner.splitn(2, ',');
        let rule = parts.next().unwrap_or("").trim().to_ascii_lowercase();
        let reason = parts
            .next()
            .and_then(|p| p.trim().strip_prefix("reason"))
            .map(|p| {
                p.trim_start_matches(['=', ' '])
                    .trim_matches('"')
                    .to_owned()
            })
            .unwrap_or_default();
        if !rule.is_empty() {
            out.push(Allow {
                rule,
                reason,
                line: t.line,
                file_scope,
            });
        }
    }
    out
}

/// The loaded workspace: every lexed source file under `crates/*/`.
#[derive(Debug)]
pub struct Workspace {
    pub files: Vec<SourceFile>,
    /// The root `tests/` and `examples/` and `benchmark/src`: read by L8
    /// as use sites only, so no other rule sees them.
    pub use_sites: Vec<SourceFile>,
}

impl Workspace {
    /// Walks `root/crates/*/{src,tests,benches,examples}` and lexes every
    /// `.rs` file, then the use-site directories. `stubs/` (offline
    /// dependency stand-ins) is deliberately out of scope: it models
    /// foreign crates, not ODP engineering objects.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory walking or file reads.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        let crates_dir = root.join("crates");
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for crate_dir in crate_dirs {
            let crate_name = crate_dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            for (sub, area) in [
                ("src", Area::Src),
                ("tests", Area::Test),
                ("benches", Area::Test),
                ("examples", Area::Test),
            ] {
                load_dir(root, &crate_dir.join(sub), &crate_name, area, &mut files)?;
            }
        }
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        let mut use_sites = Vec::new();
        for dir in ["tests", "examples", "benchmark/src"] {
            load_dir(root, &root.join(dir), "", Area::Test, &mut use_sites)?;
        }
        Ok(Workspace { files, use_sites })
    }
}

/// Lexes every `.rs` file under `dir` (if it exists) into `files`.
fn load_dir(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    area: Area,
    files: &mut Vec<SourceFile>,
) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    walk_rs(dir, &mut |path| {
        let src = std::fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(SourceFile::parse(&rel, crate_name, area, &src));
        Ok(())
    })
}

fn walk_rs(dir: &Path, f: &mut dyn FnMut(&Path) -> std::io::Result<()>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_rs(&path, f)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            f(&path)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_spans_cover_cfg_test_mod() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n";
        let f = SourceFile::parse("x.rs", "core", Area::Src, src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn test_attr_on_fn() {
        let src = "#[test]\nfn t() {\n  x.unwrap();\n}\n";
        let f = SourceFile::parse("x.rs", "core", Area::Src, src);
        assert!(f.is_test_line(3));
    }

    #[test]
    fn allow_scopes() {
        let src = "\
// odp-lint: allow-file(l3, reason = \"whole file\")
fn a() {
    x.unwrap(); // odp-lint: allow(l1, reason = \"same line\")
    // odp-lint: allow(l6, reason = \"line above\")
    let _ = y();
}
";
        let f = SourceFile::parse("x.rs", "core", Area::Src, src);
        assert!(f.is_allowed("l3", 5));
        assert!(f.is_allowed("l1", 3));
        assert!(f.is_allowed("l6", 5));
        assert!(!f.is_allowed("l1", 5));
        assert_eq!(f.allows[0].reason, "whole file");
    }

    #[test]
    fn code_lines_skip_blank_and_test_lines() {
        let src = "/* two\nlines */\nfn a() {}\n\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\n";
        assert_eq!(
            SourceFile::parse("x.rs", "core", Area::Src, src).code_lines(),
            3
        );
        assert_eq!(
            SourceFile::parse("x.rs", "core", Area::Test, src).code_lines(),
            0
        );
    }

    #[test]
    fn cfg_test_use_without_braces_is_not_a_span() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn a() {}\n";
        let f = SourceFile::parse("x.rs", "core", Area::Src, src);
        assert!(!f.is_test_line(3));
    }
}
