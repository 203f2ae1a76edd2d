// Fixture: a module file its parent declares as `#[cfg(test)] mod
// test_support;` is test code, and so is the module under it.
pub fn first(ids: &[u32]) -> u32 {
    *ids.first().unwrap()
}

mod nested;
