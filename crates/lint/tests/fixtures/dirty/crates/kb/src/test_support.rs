// Fixture: a module file its parent declares as `#[cfg(test)] mod
// test_support;` is test code, and so is the module under it.
pub fn first(ids: &[u32], msg: &str) -> u32 {
    *ids.first().expect(msg)
}

mod nested;
