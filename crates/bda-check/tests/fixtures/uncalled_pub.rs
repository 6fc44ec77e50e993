//! Intentional `uncalled_pub` violations and non-violations, linted as
//! library code together with the caller files `tests/lint_rules.rs`
//! supplies.

pub fn only_in_cfg_test() {}

pub fn only_in_tests_dir() {}

pub fn only_reexported() {}

pub fn only_recursive(n: u32) -> u32 {
    if n == 0 {
        0
    } else {
        only_recursive(n - 1)
    }
}

pub fn called_from_example() {}

pub fn called_from_benchmark() {}

// bda-check: allow(uncalled_pub) -- a probe another crate's tests read
pub fn allowed_probe() {}

// bda-check: allow(uncalled_pub) -- stale: the example calls this now
pub fn marked_but_called() {}

pub(crate) fn crate_private() {}

pub struct OnlyImplemented;

impl OnlyImplemented {
    pub fn new() -> Self {
        Self
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls() {
        super::only_in_cfg_test();
    }
}
