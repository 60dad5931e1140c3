//! Known-bad fixture: a pragma naming a rule id that does not exist must
//! be reported (a typo would otherwise silently suppress nothing), and so
//! must one naming a rule that moved to clippy.

// ca-audit: allow(wallclock) — MARK: typo'd rule id fires
fn innocuous() {}

// ca-audit: allow(wall-clock) — MARK: moved rule id fires
fn orphaned() {}
