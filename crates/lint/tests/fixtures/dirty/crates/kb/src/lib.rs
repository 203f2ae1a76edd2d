// Fixture: the crate root declares one module behind `#[cfg(test)]`
// and one that marks itself test-only with an inner attribute. Neither
// module file is library code, so neither may fire `expect-message`.
pub mod expect_message;

#[cfg(test)] mod test_support;

mod test_inner;
