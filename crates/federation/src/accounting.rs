//! Boundary accounting.
//!
//! §4.2: gateways "enforce the security and accounting policies of each
//! organization". Every admitted crossing is recorded against the source
//! domain and target interface; organizations settle from these records.

use odp_types::InterfaceId;
use parking_lot::Mutex;
use std::collections::HashMap;

/// One account line.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
// odp-lint: allow(l8, reason = "returned by the public `Accounting::line` and `Accounting::report`")
pub struct AccountLine {
    /// Interactions admitted.
    pub interactions: u64,
    /// Argument payload bytes carried.
    pub bytes: u64,
}

/// Per `(source domain name, interface)` accounting.
#[derive(Debug, Default)]
pub struct Accounting {
    lines: Mutex<HashMap<(String, InterfaceId), AccountLine>>,
}

impl Accounting {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one admitted crossing.
    pub fn record(&self, from_domain: &str, iface: InterfaceId, bytes: usize) {
        let mut lines = self.lines.lock();
        let line = lines.entry((from_domain.to_owned(), iface)).or_default();
        line.interactions += 1;
        line.bytes += bytes as u64;
    }

    /// The line for one `(domain, interface)`.
    #[must_use]
    pub fn line(&self, from_domain: &str, iface: InterfaceId) -> AccountLine {
        self.lines
            .lock()
            .get(&(from_domain.to_owned(), iface))
            .copied()
            .unwrap_or_default()
    }

    /// Full report, sorted by domain then interface.
    #[must_use]
    pub fn report(&self) -> Vec<(String, InterfaceId, AccountLine)> {
        let mut out: Vec<_> = self
            .lines
            .lock()
            .iter()
            .map(|((d, i), line)| (d.clone(), *i, *line))
            .collect();
        out.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let acc = Accounting::new();
        acc.record("acme", InterfaceId(1), 100);
        acc.record("acme", InterfaceId(1), 50);
        acc.record("acme", InterfaceId(2), 10);
        acc.record("globex", InterfaceId(1), 1);
        let line = acc.line("acme", InterfaceId(1));
        assert_eq!(line.interactions, 2);
        assert_eq!(line.bytes, 150);
        let total_from = |domain: &str| -> u64 {
            acc.report()
                .iter()
                .filter(|(d, _, _)| d == domain)
                .map(|(_, _, l)| l.interactions)
                .sum()
        };
        assert_eq!(total_from("acme"), 3);
        assert_eq!(total_from("globex"), 1);
        assert_eq!(acc.report().len(), 3);
        assert_eq!(acc.line("nobody", InterfaceId(9)), AccountLine::default());
    }
}
