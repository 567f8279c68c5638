//! The violation ratchet: a checked-in flat JSON map `{"rule/crate": n}`
//! that CI compares against the current run. Counts must match exactly:
//! new debt fails the run, and so does paid-down debt until the ratchet is
//! tightened with `--update-ratchet`, so the slack can never let debt
//! silently return.

use std::collections::BTreeMap;

/// Outcome of comparing current counts to the checked-in ratchet.
#[derive(Debug, Default)]
// odp-lint: allow(l8, reason = "returned by the public `ratchet::check`, which the odp-lint binary calls")
pub struct RatchetCheck {
    /// `rule/crate` entries above their budget: `(key, budget, actual)`.
    pub regressions: Vec<(String, u64, u64)>,
    /// Entries now below budget: the ratchet must be tightened.
    pub improvements: Vec<(String, u64, u64)>,
}

impl RatchetCheck {
    /// Whether every count equals its budget.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.regressions.is_empty() && self.improvements.is_empty()
    }
}

/// Compares current counts to the ratchet budgets (absent key = 0).
#[must_use]
pub fn check(ratchet: &BTreeMap<String, u64>, current: &BTreeMap<String, u64>) -> RatchetCheck {
    let mut out = RatchetCheck::default();
    let keys: std::collections::BTreeSet<&String> = ratchet.keys().chain(current.keys()).collect();
    for key in keys {
        let budget = ratchet.get(key).copied().unwrap_or(0);
        let actual = current.get(key).copied().unwrap_or(0);
        if actual > budget {
            out.regressions.push((key.clone(), budget, actual));
        } else if actual < budget {
            out.improvements.push((key.clone(), budget, actual));
        }
    }
    out
}

/// Serializes counts as the ratchet file format (sorted, one entry per
/// line, trailing newline — diff-friendly).
#[must_use]
pub fn to_json(counts: &BTreeMap<String, u64>) -> String {
    let mut s = String::from("{\n");
    let mut first = true;
    for (k, v) in counts {
        if !first {
            s.push_str(",\n");
        }
        first = false;
        s.push_str(&format!("  \"{k}\": {v}"));
    }
    s.push_str("\n}\n");
    s
}

/// Parses the ratchet file: a flat JSON object of string keys to
/// non-negative integers. Hand-rolled (no serde in this crate), strict
/// enough to reject anything that is not the documented format.
///
/// # Errors
///
/// A description of the first malformed construct.
pub fn parse_json(src: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut map = BTreeMap::new();
    let mut chars = src.chars().peekable();
    skip_ws(&mut chars);
    if chars.next() != Some('{') {
        return Err("expected `{` at start of ratchet file".to_owned());
    }
    loop {
        skip_ws(&mut chars);
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some('"') => {
                let key = parse_string(&mut chars)?;
                skip_ws(&mut chars);
                if chars.next() != Some(':') {
                    return Err(format!("expected `:` after key {key:?}"));
                }
                skip_ws(&mut chars);
                let mut num = String::new();
                while chars.peek().is_some_and(char::is_ascii_digit) {
                    num.push(chars.next().unwrap_or('0'));
                }
                let value: u64 = num
                    .parse()
                    .map_err(|_| format!("expected integer for key {key:?}"))?;
                map.insert(key, value);
                skip_ws(&mut chars);
                if chars.peek() == Some(&',') {
                    chars.next();
                }
            }
            other => return Err(format!("unexpected {other:?} in ratchet file")),
        }
    }
    Ok(map)
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_whitespace()) {
        chars.next();
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected string".to_owned());
    }
    let mut s = String::new();
    loop {
        match chars.next() {
            Some('"') => return Ok(s),
            Some('\\') => match chars.next() {
                Some(c) => s.push(c),
                None => return Err("unterminated escape".to_owned()),
            },
            Some(c) => s.push(c),
            None => return Err("unterminated string".to_owned()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect()
    }

    #[test]
    fn json_roundtrip() {
        let c = counts(&[("L1/core", 3), ("L7/net", 1)]);
        assert_eq!(parse_json(&to_json(&c)).as_ref(), Ok(&c));
    }

    #[test]
    fn regression_and_improvement() {
        let ratchet = counts(&[("L1/core", 2), ("L3/gc", 5)]);
        let current = counts(&[("L1/core", 3), ("L3/gc", 1)]);
        let check = check(&ratchet, &current);
        assert_eq!(check.regressions, [("L1/core".to_owned(), 2, 3)]);
        assert_eq!(check.improvements, [("L3/gc".to_owned(), 5, 1)]);
        assert!(!check.ok());
    }

    #[test]
    fn paid_down_debt_fails_until_tightened() {
        let ratchet = counts(&[("L3/core", 2), ("L3/gc", 1)]);
        let check = check(&ratchet, &counts(&[("L3/core", 1), ("L3/gc", 1)]));
        assert!(check.regressions.is_empty());
        assert_eq!(check.improvements, [("L3/core".to_owned(), 2, 1)]);
        assert!(!check.ok(), "slack below budget must fail");
        let tightened = counts(&[("L3/core", 1), ("L3/gc", 1)]);
        assert!(super::check(&tightened, &tightened).ok());
    }

    #[test]
    fn new_key_regresses_from_zero() {
        let check = check(&BTreeMap::new(), &counts(&[("L6/net", 1)]));
        assert_eq!(check.regressions, [("L6/net".to_owned(), 0, 1)]);
    }

    #[test]
    fn malformed_rejected() {
        for bad in ["", "[]", "{\"a\" 1}", "{\"a\": x}"] {
            assert!(parse_json(bad).is_err(), "accepted {bad:?}");
        }
    }
}
