//@ crate: core
// Fixture: a public function, a public constant and a public struct that
// no other file names.
pub fn l8_lonely_helper() -> u32 {
    L8_LONELY_LIMIT
}

pub const L8_LONELY_LIMIT: u32 = 7;

pub struct L8LonelyRecord {
    pub value: u32,
}
