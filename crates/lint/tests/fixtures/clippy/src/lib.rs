//! Each item reproduces one construction the workspace lints reject
//! (the old P1/S1 cases of `../ws/crates/bad/src/lib.rs`). The
//! fixture test runs `cargo clippy -- -D warnings` here and expects
//! the named lint at every `LINT:` line below.

/// Bare unwrap in library code.
pub fn bare_unwrap(x: Option<u8>) -> u8 {
    x.unwrap() // LINT: clippy::unwrap_used
}

/// Panic-lint allow without a reason.
#[allow(clippy::expect_used)] // LINT: clippy::allow_attributes_without_reason
pub fn reasonless_allow(x: Option<u8>) -> u8 {
    x.expect("boom")
}

/// `unsafe` anywhere.
pub fn raw_read(p: *const u8) -> u8 {
    unsafe { *p } // LINT: unsafe_code
}

/// Resume root reaching an unjustified unwrap two hops down.
pub fn resume() {
    helper();
}

fn helper() {
    deep();
}

fn deep() {
    let v: Option<u8> = None;
    let _ = v.unwrap(); // LINT: clippy::unwrap_used
}

/// A justification whose panic site was refactored away.
#[expect(clippy::unwrap_used, reason = "leftover justification with nothing to justify")] // LINT: unfulfilled_lint_expectations
pub fn stale_expect() -> u8 {
    0
}
