// Fixture: a module under a test-only module is test code too.
pub fn last(ids: &[u32], msg: &str) -> u32 {
    *ids.last().expect(msg)
}
