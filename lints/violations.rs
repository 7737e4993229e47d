//! One violation per retired `camp-lint` source rule (S001–S008, S010,
//! S011), for the `scripts/ci.sh` stage that proves clippy and rustc reject
//! each of them under the protocol crates' shared list, `lints/clippy.toml`.
//!
//! No cargo target includes this file. The stage compiles it alone:
//!
//! ```sh
//! CLIPPY_CONF_DIR=lints clippy-driver --edition 2021 --crate-type lib \
//!     --emit=metadata -D warnings lints/violations.rs
//! ```
//!
//! and expects a non-zero exit with exactly the findings named below, and
//! none on the use that an `#[expect]` covers.

#![forbid(unsafe_code)]

// S001: hash-ordered collections.
pub fn s001() -> usize {
    std::collections::HashMap::<u8, u8>::new().len() + std::collections::HashSet::<u8>::new().len()
}

// S002: the wall clock.
pub fn s002() -> bool {
    let _: Option<std::time::SystemTime> = None;
    std::time::Instant::now().elapsed().is_zero()
}

// S003: floats.
pub struct S003 {
    pub single: f32,
    pub double: f64,
}

// S004: ambient randomness.
pub fn s004() -> u64 {
    use std::hash::BuildHasher;
    std::hash::RandomState::new().hash_one(0u8)
}

// S005, and the `static mut` half of S007: declaring one compiles, but
// every read or write needs `unsafe`, which `forbid(unsafe_code)` rejects.
pub static mut COUNTER: u8 = 0;
pub fn s005() {
    unsafe { COUNTER += 1 }
}

// S006: threads.
pub fn s006() {
    std::thread::spawn(|| {});
}

// S007: lazily initialised globals.
pub fn s007() -> bool {
    std::sync::OnceLock::<u8>::new().get().is_some()
        || std::cell::OnceCell::<u8>::new().get().is_some()
}

// S008: tearing down the process.
pub fn s008(fail: bool) {
    if fail {
        std::process::abort();
    }
    std::process::exit(1);
}

// S010: environment reads.
pub fn s010() -> bool {
    std::env::var("HOME").is_ok() || std::env::var_os("HOME").is_some()
}

// S011: an expectation that matches nothing is itself an error
// (`unfulfilled_lint_expectations`).
#[expect(clippy::disallowed_types, reason = "stale: nothing below is banned")]
pub fn s011() -> u8 {
    0
}

// A justified exception: the expectation is fulfilled, so nothing fires.
// The stage asserts that no finding points at or below this line.
#[expect(clippy::disallowed_types, reason = "covered: the one sanctioned use")]
pub fn covered() -> Option<std::collections::BTreeMap<u8, f64>> {
    None
}
