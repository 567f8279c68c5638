//@ crate: trading
// Fixture: a type that only a public signature names keeps `pub`, with the
// signature as the reason.
#[derive(Debug)]
// odp-lint: allow(l8, reason = "the error type of the public `l8_parse`")
pub enum L8ParseError {
    Empty,
}

pub fn l8_parse(s: &str) -> Result<u32, L8ParseError> {
    s.parse().map_err(|_| L8ParseError::Empty)
}
