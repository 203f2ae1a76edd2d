// Fixture: a module under a test-only module is test code too.
pub fn last(ids: &[u32]) -> u32 {
    *ids.last().unwrap()
}
