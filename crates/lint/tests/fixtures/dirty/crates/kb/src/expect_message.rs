// Fixture: `expect-message` must fire once — an expect() whose message
// is not a string literal. The bare unwrap() is clippy's
// (`clippy::unwrap_used`), and the documented literal expect and the
// cfg(test) module must NOT fire.
pub fn first_facility(ids: &[u32], msg: &str) -> u32 {
    let undocumented = ids.iter().max().expect(msg);
    let bare = ids.first().unwrap();
    let _documented = ids.last().expect("non-empty checked by caller");
    undocumented + bare
}

#[cfg(test)]
mod tests {
    #[test]
    fn expect_in_tests_is_fine() {
        let msg = "test";
        assert_eq!(Some(1).expect(msg), 1);
    }
}
