//! Fixture: an inner `#![cfg(test)]` makes the whole file test code.
#![cfg(test)]

pub fn first(ids: &[u32]) -> u32 {
    *ids.first().unwrap()
}
