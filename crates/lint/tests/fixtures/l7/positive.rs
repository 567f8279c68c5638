//@ crate: core
// Fixture: unbounded constructors on a hot path.
pub fn channels() {
    let (a_tx, a_rx) = crossbeam::channel::unbounded();
    let (b_tx, b_rx) = std::sync::mpsc::channel();
    let (c_tx, c_rx) = crossbeam::channel::unbounded::<Vec<u8>>();
    forward(a_tx, a_rx, b_tx, b_rx, c_tx, c_rx);
}
