//! `unused_allow`: a marker over clean code suppresses nothing.

// bda-check: allow(unwrap) -- stale: nothing below unwraps
pub fn clean() -> u32 {
    1
}

pub fn justified(v: Option<u32>) -> u32 {
    v.unwrap() // bda-check: allow(unwrap) -- fixture: the caller checked
}
