//@ crate: net
// Fixture: an allow without a reason is malformed and allows nothing.
pub fn notify(tx: &Sender) {
    // odp-lint: allow(l6)
    let _ = tx.send(1);
    // odp-lint: allow(l6, reason = "")
    let _ = tx.send(2);
}
